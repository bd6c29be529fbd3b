package main

import (
	"fmt"
	"io"

	"timebounds/internal/bounds"
	"timebounds/internal/spec"
	"timebounds/internal/types"
)

// runClassify prints the Chapter II classification matrix for every
// bundled data type, re-derived from the sequential specifications by the
// brute-force classifiers (internal/spec) over the default search domains
// — the executable version of the paper's operation taxonomy.
//
// Columns: class (Chapter V path), mutator/accessor (Defs. D.1–D.4),
// overwriter (Def. D.5), immediately non-self-commuting (Def. B.2),
// strongly so (Def. B.3), eventually non-self-commuting (Def. C.3), and
// non-self-last-permuting at k=3 (Def. C.5). With -bounds it adds the
// bounds derived from the classification at the given n, d and u.
func runClassify(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("classify", stderr)
	derive := fs.Bool("bounds", false, "also print bounds derived from the classification")
	m := addModelFlags(fs, "n d u", 4, 0)
	if err := parse(fs, args); err != nil {
		return err
	}
	p, err := m.params()
	if err != nil {
		return err
	}
	dts := []spec.DataType{
		types.NewRMWRegister(0),
		types.NewCounter(),
		types.NewQueue(),
		types.NewStack(),
		types.NewSet(),
		types.NewTree(),
		types.NewDict(),
		types.NewPQueue(),
		types.NewAccount(),
		types.NewPairArray(3, 5),
	}
	fmt.Fprintf(stdout, "%-12s %-14s %-5s %-8s %-8s %-6s %-6s %-8s %-6s %-8s\n",
		"object", "operation", "class", "mutator", "accessor", "ovwr", "INSC", "strong", "ENSC", "lastperm")
	for _, dt := range dts {
		dom := types.DomainFor(dt)
		for _, c := range spec.ClassifyAll(dt, dom) {
			fmt.Fprintf(stdout, "%-12s %-14s %-5s %-8s %-8s %-6s %-6s %-8s %-6s %-8s\n",
				dt.Name(), c.Kind, c.Class,
				yes(c.Mutator), yes(c.Accessor), yes(c.Overwriter),
				yes(c.INSC), yes(c.StronglyINSC), yes(c.ENSC), yes(c.LastPermuting3))
		}
	}
	if !*derive {
		return nil
	}
	fmt.Fprintf(stdout, "\nderived bounds (n=%d d=%s u=%s ε=%s, X=0):\n", p.N, p.D, p.U, p.Epsilon)
	for _, dt := range dts {
		dom := types.DomainFor(dt)
		for _, der := range bounds.DeriveAll(dt, dom) {
			fmt.Fprintf(stdout, "  %-12s %s\n", dt.Name(), bounds.FormatDerived(der, p, 0))
		}
	}
	return nil
}

func yes(b bool) string {
	if b {
		return "yes"
	}
	return "-"
}
