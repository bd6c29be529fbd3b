// Command tbvet runs the repository's static-analysis suite
// (internal/lint) over the module tree: the determinism, hotpath and
// ctxhygiene analyzers plus the original package-doc check, all on a
// shared typed AST. It is wired into `make vet` next to
// go vet and into the dedicated CI lint job.
//
// Usage:
//
//	tbvet [-analyzers list] [-json] [-list] [dir]
//
// tbvet loads the module rooted at dir (default "."), runs the selected
// analyzers (default: all), honors //tbvet:ignore suppression
// directives, and exits non-zero if any finding survives. Findings go
// to stderr in vet's file:line:col form; -json writes the machine shape
// (the CI artifact) to stdout instead. -list prints the analyzer
// catalogue. See docs/STATIC_ANALYSIS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"timebounds/internal/lint"
)

func main() {
	analyzersFlag := flag.String("analyzers", "", "comma-separated analyzer names to run (default: all)")
	jsonOut := flag.Bool("json", false, "write findings as JSON to stdout")
	list := flag.Bool("list", false, "list the available analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
			for _, e := range a.Exempt {
				fmt.Printf("%-12s   exempt %s: %s\n", "", e.Path, e.Reason)
			}
		}
		return
	}

	root := "."
	if flag.NArg() > 0 {
		root = flag.Arg(0)
	}
	analyzers := lint.All()
	if *analyzersFlag != "" {
		var err error
		analyzers, err = lint.ByName(*analyzersFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tbvet: %v\n", err)
			os.Exit(2)
		}
	}

	prog, err := lint.Load(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tbvet: %v\n", err)
		os.Exit(2)
	}
	findings := lint.Run(prog, analyzers)

	if *jsonOut {
		names := make([]string, len(analyzers))
		for i, a := range analyzers {
			names[i] = a.Name
		}
		if findings == nil {
			findings = []lint.Diagnostic{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		err := enc.Encode(struct {
			Module    string            `json:"module"`
			Analyzers []string          `json:"analyzers"`
			Findings  []lint.Diagnostic `json:"findings"`
		}{prog.Module, names, findings})
		if err != nil {
			fmt.Fprintf(os.Stderr, "tbvet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range findings {
			fmt.Fprintf(os.Stderr, "tbvet: %s\n", d)
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}
