module kifmm/bench

go 1.24

require kifmm v0.0.0

replace kifmm => ../
