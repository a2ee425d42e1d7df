package main

import (
	"bytes"
	"testing"
)

// One seed must give a byte-identical op stream, two seeds different
// ones, for every workload: a run's operations and bytes may depend on
// nothing but (workload, seed, seconds).
func TestPlanDeterminism(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.Name, func(t *testing.T) {
			a := MakePlan(sp, 7, 2).Encode()
			b := MakePlan(sp, 7, 2).Encode()
			if !bytes.Equal(a, b) {
				t.Fatal("seed 7 gave two different op streams")
			}
			if c := MakePlan(sp, 8, 2).Encode(); bytes.Equal(a, c) {
				t.Fatal("seeds 7 and 8 gave the same op stream")
			}
		})
	}
}

// The op mix is fixed by the workload: which files and sizes a seed picks
// changes, how many ops of each kind a run holds does not.
func TestPlanMix(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.Name, func(t *testing.T) {
			var counts [3]Tally
			for i, seed := range []int64{1, 2, 3} {
				p := MakePlan(sp, seed, 10)
				if len(p.Conns) != sp.Conns {
					t.Fatalf("%d connections, want %d", len(p.Conns), sp.Conns)
				}
				counts[i] = p.Expect(-1)
			}
			for i := 1; i < len(counts); i++ {
				if counts[i].Ops != counts[0].Ops {
					t.Fatalf("op counts differ across seeds: %v vs %v", counts[i].Ops, counts[0].Ops)
				}
			}
			// Every op kind yields a p99 over at least minTailSamples
			// timed samples (the warm-up share is not timed).
			for k, n := range counts[0].Ops {
				if timed := n - n/warmShare - 1; timed < minTailSamples {
					t.Errorf("%d timed %s ops in a 10 s run, want >= %d", timed, Kind(k), minTailSamples)
				}
			}
		})
	}
}

// Each connection mutates only files it owns, and every delete and read
// of a mutable file names the version the stream itself last created.
func TestPlanOwnership(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.Name, func(t *testing.T) {
			p := MakePlan(sp, 3, 2)
			shared := make(map[uint32]bool)
			for _, f := range p.Corpus {
				if f.Owner < 0 {
					shared[f.File] = true
				}
			}
			for c, ops := range p.Conns {
				live := make(map[uint32]uint32) // file -> version
				for _, f := range p.Corpus {
					if f.Owner == c {
						live[f.File] = 0
					}
				}
				for i, o := range ops {
					v, mine := live[o.File]
					switch {
					case o.Kind == KindCreate:
						if shared[o.File] {
							t.Fatalf("conn %d op %d creates shared file %d", c, i, o.File)
						}
						live[o.File] = o.Version
					case o.Kind == KindDelete:
						if !mine || v != o.Version {
							t.Fatalf("conn %d op %d deletes %d.%d it does not hold", c, i, o.File, o.Version)
						}
						delete(live, o.File)
					case !shared[o.File] && (!mine || v != o.Version):
						t.Fatalf("conn %d op %d reads %d.%d it does not hold", c, i, o.File, o.Version)
					}
				}
			}
		})
	}
}
