package core

import (
	"fmt"
	"sync"

	"esrp/internal/aspmv"
	"esrp/internal/dist"
	"esrp/internal/sparse"
)

// solveShared is what the rank goroutines of one solve share beyond the
// partition and plan they start from: the defaulted configuration and the
// recovery set-up table. Both live in one allocation — the one the escaping
// Config copy cost before — so a failure-free solve pays nothing for a table
// it never fills, and the table cannot outlive the solve.
type solveShared struct {
	cfg    Config
	setups recoverySetups
}

// staticSystem is the static data a recovery installs: a matrix, a row
// partition of it and the communication plan of the two. For a spare
// recovery it is the inner system A[If,If] over the replacement ranks; for a
// no-spare shrink it is A itself over the survivors. It stands in for what
// the nodes reload from safe storage, so building it is host-only work (no
// Compute, no message, no footprint sample — the paper excludes it from its
// timings the same way) and, once built, it is immutable: every
// participating rank reads the same instance, as ranks already do with the
// Prepared plan.
type staticSystem struct {
	a    *sparse.CSR
	part *dist.Partition
	plan *aspmv.Plan
}

type setupKind uint8

const (
	setupInner    setupKind = iota // A[If,If], one part per failed rank
	setupInnerSeq                  // A[If,If] as a single part (adopter, gathered ablation)
	setupShrink                    // A over the survivors of a no-spare shrink
)

// setupKey names one recovery set-up: the partition in force when the event
// struck (by identity — partitions are immutable and every rank of a solve
// holds the same pointer, a fresh one after each shrink) plus the failed
// index range. The same block failing twice under one partition therefore
// finds its inner system again, while a second shrink, which starts from the
// first one's partition, gets its own entry.
type setupKey struct {
	part     *dist.Partition
	flo, fhi int
	kind     setupKind
}

type setupEntry struct {
	sys *staticSystem
	err error
}

// recoverySetups builds each recovery's static data once per event instead
// of once per participating rank. The zero value is an empty table; the map
// appears with the first failure.
type recoverySetups struct {
	mu    sync.Mutex
	built map[setupKey]setupEntry
}

// get returns the set-up for key, calling build if no rank has asked for it
// yet. Ranks asking meanwhile wait on the mutex — they could not proceed
// without the result anyway — and a build error is kept, so every one of
// them reports the original message.
func (t *recoverySetups) get(key setupKey, build func() (*staticSystem, error)) (*staticSystem, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.built[key]; ok {
		return e.sys, e.err
	}
	if t.built == nil {
		t.built = make(map[setupKey]setupEntry)
	}
	sys, err := build()
	t.built[key] = setupEntry{sys, err}
	return sys, err
}

// newInnerSystem extracts A[flo:fhi, flo:fhi) and plans its product over
// the partition with the given offsets (relative to flo).
func newInnerSystem(a *sparse.CSR, flo, fhi int, offsets []int) (*staticSystem, error) {
	ipart, err := dist.FromOffsets(offsets)
	if err != nil {
		return nil, fmt.Errorf("core: inner partition: %w", err)
	}
	asub := a.SubRange(flo, fhi, flo, fhi)
	iplan, err := aspmv.NewPlan(asub, ipart)
	if err != nil {
		return nil, fmt.Errorf("core: inner plan: %w", err)
	}
	return &staticSystem{a: asub, part: ipart, plan: iplan}, nil
}

// innerSystem returns the reconstruction's inner system for the failed rank
// block under the partition in force: split like the lost ranks' ranges
// (setupInner) or as one part (setupInnerSeq).
func (run *nodeRun) innerSystem(kind setupKind, failed []int, flo, fhi int) *staticSystem {
	key := setupKey{part: run.part, flo: flo, fhi: fhi, kind: kind}
	sys, err := run.setups.get(key, func() (*staticSystem, error) {
		offsets := []int{0, fhi - flo}
		if kind == setupInner {
			offsets = make([]int, len(failed)+1)
			for i, fr := range failed {
				offsets[i] = run.part.Lo(fr) - flo
			}
			offsets[len(failed)] = fhi - flo
		}
		return newInnerSystem(run.cfg.A, flo, fhi, offsets)
	})
	if err != nil {
		panic(err.Error())
	}
	return sys
}

// shrunkenSystem returns the survivors' partition after losing [flo,fhi)
// and the plan over it, augmented to phi when redundancy is still possible.
func (run *nodeRun) shrunkenSystem(survivors []int, flo, fhi, phi int) *staticSystem {
	key := setupKey{part: run.part, flo: flo, fhi: fhi, kind: setupShrink}
	sys, err := run.setups.get(key, func() (*staticSystem, error) {
		// Survivors keep their ranges; the gap left by the failed block is
		// absorbed by the next survivor (or the previous one when the block
		// is at the top).
		part, err := run.part.ShrinkAfterLoss(survivors)
		if err != nil {
			return nil, fmt.Errorf("core: no-spare partition: %w", err)
		}
		plan, err := aspmv.NewPlan(run.cfg.A, part)
		if err != nil {
			return nil, fmt.Errorf("core: no-spare plan: %w", err)
		}
		if phi >= 1 {
			if err := plan.Augment(phi); err != nil {
				return nil, fmt.Errorf("core: no-spare augment: %w", err)
			}
		}
		return &staticSystem{a: run.cfg.A, part: part, plan: plan}, nil
	})
	if err != nil {
		panic(err.Error())
	}
	return sys
}
