package main

import (
	"fmt"
	"sort"
	"time"

	"abivm/internal/exec"
	"abivm/internal/plan"
	"abivm/internal/sql"
	"abivm/internal/storage"
)

// recompute evaluates a view from scratch over the live tables: parse,
// plan and execute the view's SQL with no incremental state involved.
// It charges a private Stats so the live database's counters are left
// alone.
func recompute(db *storage.DB, query string) ([]storage.Row, error) {
	sel, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	op, err := plan.Compile(sel, db, &plan.Options{Stats: &storage.Stats{}})
	if err != nil {
		return nil, err
	}
	return exec.Collect(op)
}

// canonical renders rows as a sorted multiset of row strings.
func canonical(rows []storage.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// sameRows compares two row sets as sorted multisets and describes the
// first difference.
func sameRows(got, want []storage.Row) error {
	g, w := canonical(got), canonical(want)
	if len(g) != len(w) {
		return fmt.Errorf("%d rows, want %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			return fmt.Errorf("row %q, want %q", g[i], w[i])
		}
	}
	return nil
}

// oracle recomputes every view once and records how long a from-scratch
// evaluation takes — the bar incremental maintenance has to beat.
type oracle struct {
	want    map[string][]storage.Row
	elapsed time.Duration
}

// newOracle recomputes each view reps times (reps >= 1) and keeps the
// median evaluation time summed over views.
func newOracle(db *storage.DB, views []view, reps int) (*oracle, error) {
	o := &oracle{want: map[string][]storage.Row{}}
	for _, v := range views {
		times := make([]float64, reps)
		for i := range times {
			start := time.Now()
			rows, err := recompute(db, v.query)
			if err != nil {
				return nil, fmt.Errorf("recomputing %s: %w", v.name, err)
			}
			times[i] = time.Since(start).Seconds()
			o.want[v.name] = rows
		}
		o.elapsed += time.Duration(median(times) * float64(time.Second))
	}
	return o, nil
}
