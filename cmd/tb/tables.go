package main

import (
	"fmt"
	"io"

	"timebounds/internal/bounds"
	"timebounds/internal/experiments"
)

// runTables regenerates the paper's Tables I–IV (Chapter VI), printing for
// each operation the previous lower bound, the paper's new lower bound,
// Algorithm 1's upper bound, and a measured worst-case latency obtained by
// running the object under a mixed workload on the simulator with
// worst-case (slowest admissible) delays and maximal clock skew.
func runTables(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("tables", stderr)
	table := fs.Int("table", 0, "table number 1-4 (0 = all)")
	m := addModelFlags(fs, "n d u eps x seed ops", 4, 20)
	if err := parse(fs, args); err != nil {
		return err
	}
	tables := bounds.AllTables()
	if *table < 0 || *table > len(tables) {
		return fmt.Errorf("no table %d: -table takes 1-%d, or 0 for all", *table, len(tables))
	}
	p, err := m.params()
	if err != nil {
		return err
	}
	for _, tbl := range tables {
		if *table != 0 && tbl.Number != *table {
			continue
		}
		measured, _, err := experiments.MeasureTable(tbl, p, experiments.MeasureOptions{
			X:               m.x,
			Seed:            m.seed,
			OpsPerProcess:   m.ops,
			WorstCaseDelays: true,
		})
		if err != nil {
			return fmt.Errorf("table %d: %w", tbl.Number, err)
		}
		fmt.Fprintln(stdout, bounds.Render(tbl, p, m.x, measured))
	}
	return nil
}
