package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// reference is one workload's pinned simulated outputs. A nil Seed means
// the workload does not use the seed, so the outputs hold for every seed.
type reference struct {
	Seed    *uint64            `json:"seed"`
	Outputs map[string]float64 `json:"outputs"`
}

func parseReference(data []byte) (map[string]reference, error) {
	var refs map[string]reference
	if err := json.Unmarshal(data, &refs); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return refs, nil
}

// gate is the correctness check of one workload at one seed: the pinned
// outputs when they apply to the seed, and the workload's invariants
// always.
type gate struct {
	want map[string]float64 // nil: invariants only
	err  error              // set when the reference is unusable
}

func newGate(w workload, refs map[string]reference, seed uint64) *gate {
	ref, ok := refs[w.name()]
	if !ok || len(ref.Outputs) == 0 {
		return &gate{err: fmt.Errorf("no reference outputs for workload %s", w.name())}
	}
	if ref.Seed != nil && *ref.Seed != seed {
		return &gate{}
	}
	return &gate{want: ref.Outputs}
}

// check returns an error describing the first mismatch, if any.
func (g *gate) check(w workload, got map[string]float64) error {
	if g.err != nil {
		return g.err
	}
	if err := w.check(got); err != nil {
		return err
	}
	return compareOutputs("reference", g.want, got)
}

// sameOutputs requires a repetition to reproduce the first one.
func sameOutputs(first, got map[string]float64) error {
	return compareOutputs("first repetition", first, got)
}

// compareOutputs requires every key of want to be present in got with
// exactly the same value: the outputs are deterministic functions of the
// configuration, so any difference is a behaviour change.
func compareOutputs(what string, want, got map[string]float64) error {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g, ok := got[k]
		if !ok {
			return fmt.Errorf("output %s missing (%s has %v)", k, what, want[k])
		}
		if g != want[k] && !(math.IsNaN(g) && math.IsNaN(want[k])) {
			return fmt.Errorf("output %s = %v, %s has %v", k, g, what, want[k])
		}
	}
	return nil
}
