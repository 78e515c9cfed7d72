package analysis

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// MainOptions are the flags cmd/fmmvet accepts in front of the package
// patterns.
type MainOptions struct {
	// JSON emits one JSON object per diagnostic line instead of text.
	JSON bool
	// WriteEscapeBaseline regenerates escape_baseline.txt instead of
	// diffing against it (make lint-baseline).
	WriteEscapeBaseline bool
	// EscapeBaseline overrides the baseline path (default
	// escape_baseline.txt at the module root).
	EscapeBaseline string
}

// Main is cmd/fmmvet's entry point: parse the flags, load the package
// patterns (go list + source typechecking, load.go), run the whole-program
// analysis (global.go) and print the diagnostics. globals builds the
// whole-program analyzers from the parsed options — a callback so the
// analyzer packages, which import this one, can be wired in by cmd/fmmvet
// without an import cycle. It returns the process exit code.
func Main(analyzers []*Analyzer, globals func(opts MainOptions, patterns []string) []*GlobalAnalyzer) int {
	var opts MainOptions
	var patterns []string
	for _, a := range os.Args[1:] {
		switch {
		case a == "-h" || a == "-help" || a == "--help":
			usage(analyzers)
			return 0
		case a == "-json" || a == "--json":
			opts.JSON = true
		case a == "-write-escape-baseline" || a == "--write-escape-baseline":
			opts.WriteEscapeBaseline = true
		case strings.HasPrefix(a, "-escape-baseline="):
			opts.EscapeBaseline = strings.TrimPrefix(a, "-escape-baseline=")
		case strings.HasPrefix(a, "-"):
			fmt.Fprintf(os.Stderr, "fmmvet: unknown flag %s\n", a)
			usage(analyzers)
			return 1
		default:
			patterns = append(patterns, a)
		}
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	return run(patterns, analyzers, globals(opts, patterns), opts)
}

func usage(analyzers []*Analyzer) {
	fmt.Println("fmmvet: project-specific static analysis for the kifmm tree.")
	fmt.Println()
	fmt.Println("usage: fmmvet [flags] [packages]  whole-program analysis over go list patterns")
	fmt.Println()
	fmt.Println("flags:")
	fmt.Println("  -json                    one JSON object per diagnostic (file, line, analyzer, chain, message)")
	fmt.Println("  -write-escape-baseline   regenerate escape_baseline.txt from the current compiler output")
	fmt.Println("  -escape-baseline=PATH    baseline location (default escape_baseline.txt at the module root)")
	fmt.Println()
	fmt.Println("analyzers:")
	for _, a := range analyzers {
		doc := a.Doc
		if i := strings.IndexByte(doc, '\n'); i >= 0 {
			doc = doc[:i]
		}
		fmt.Printf("  %-10s %s\n", a.Name, doc)
	}
	fmt.Println("  lockorder  reports lock-acquisition-order cycles (potential deadlocks) and unlock-without-lock; whole-program")
	fmt.Println("  escape     diffs compiler escape/inlining decisions in hot paths against escape_baseline.txt")
}

func run(patterns []string, analyzers []*Analyzer, globals []*GlobalAnalyzer, opts MainOptions) int {
	pkgs, err := Load(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fmmvet:", err)
		return 1
	}
	diags, err := RunWholeProgram(pkgs, analyzers, globals)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fmmvet:", err)
		return 1
	}
	if len(pkgs) == 0 {
		return 0
	}
	fset := pkgs[0].Fset
	exit := 0
	for _, d := range diags {
		exit = 1
		if opts.JSON {
			var file string
			var line, col int
			if d.PosStr != "" {
				file, line, col = SplitPosStr(d.PosStr)
			} else {
				p := fset.Position(d.Pos)
				file, line, col = p.Filename, p.Line, p.Column
			}
			fmt.Println(jsonLine(file, line, col, d))
		} else {
			fmt.Fprintln(os.Stderr, Render(fset, d))
		}
	}
	return exit
}

// jsonDiag is the -json output schema: one object per line.
type jsonDiag struct {
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Col      int      `json:"col,omitempty"`
	Analyzer string   `json:"analyzer"`
	Chain    []string `json:"chain,omitempty"`
	Message  string   `json:"message"`
}

// jsonLine renders one diagnostic as a JSON object.
func jsonLine(posFile string, posLine, posCol int, d Diagnostic) string {
	jd := jsonDiag{
		File:     posFile,
		Line:     posLine,
		Col:      posCol,
		Analyzer: d.Analyzer,
		Message:  d.Message,
	}
	if len(d.Chain) > 1 {
		jd.Chain = d.Chain
	}
	b, err := json.Marshal(jd)
	if err != nil {
		return fmt.Sprintf(`{"analyzer":%q,"message":%q}`, d.Analyzer, d.Message)
	}
	return string(b)
}

// SplitPosStr parses a rendered "file:line:col" (or "file:line") position.
func SplitPosStr(s string) (file string, line, col int) {
	file = s
	// Trailing :col.
	if i := strings.LastIndexByte(file, ':'); i >= 0 {
		if n, err := strconv.Atoi(file[i+1:]); err == nil {
			col = n
			file = file[:i]
		}
	}
	if i := strings.LastIndexByte(file, ':'); i >= 0 {
		if n, err := strconv.Atoi(file[i+1:]); err == nil {
			line = n
			file = file[:i]
			return file, line, col
		}
	}
	// Only one numeric suffix: it was the line, not the column.
	return file, col, 0
}
