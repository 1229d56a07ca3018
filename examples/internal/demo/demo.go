// Package demo holds the few lines every example used to repeat:
// machine-option setup, open-or-die, and the cold-cache "run a query
// and print its I/O cost" loop. The README's snippets compile against
// this package, so doc drift is a build break.
package demo

import (
	"fmt"

	"repro"
)

// Machine is the examples' simulated external-memory machine: blocks
// of b words, a memory of 64 blocks — big enough that B and M matter,
// small enough that I/O counts stay legible.
func Machine(b int) repro.MachineConfig {
	return repro.MachineConfig{B: b, M: b * 64}
}

// MustOpen opens an index or dies — example-grade error handling.
func MustOpen(opts repro.Options, pts []repro.Point) *repro.DB {
	db, err := repro.Open(opts, pts)
	if err != nil {
		panic(err)
	}
	return db
}

// Show runs one query against a cold cache and prints its answer and
// simulated I/O cost.
func Show(db *repro.DB, name string, fn func() []repro.Point) {
	db.DropCache()
	db.ResetStats()
	ans := fn()
	fmt.Printf("%-16s -> %v  (%v)\n", name, ans, db.Stats())
}
