// Package diag stubs kifmm/internal/diag's Profile for the fixtures: the
// analyzer matches by method name and a package path ending in "diag".
package diag

type Profile struct{}

func (p *Profile) AddFlops(name string, n int64)   {}
func (p *Profile) AddTime(name string, ns int64)   {}
func (p *Profile) AddCounter(name string, n int64) {}
func (p *Profile) Start(name string) func()        { return func() {} }
func (p *Profile) Merge(names []string, times []int64, flops []int64, counters []string, counts []int64) {
}
