package core

import (
	"fmt"
	"testing"

	"quanterference/internal/fault"
	"quanterference/internal/sim"
	"quanterference/internal/workload/io500"
)

// causalityScenario builds one seeded scenario: an IO500 data or metadata
// target, optionally under read interference, and optionally with a
// disk-slow episode (on the MDT for a metadata target, on a seed-drawn OST
// otherwise) and an ost-stall episode under a client RPC timeout, so the
// retry path runs too.
func causalityScenario(seed int64, task io500.Task, interfere, faulty bool) Scenario {
	s := Scenario{
		Target: TargetSpec{
			Gen:   io500.New(task, io500.Params{Dir: "/tgt", Ranks: 2, EasyFileBytes: 256 << 20, MdtFiles: 400}),
			Nodes: []string{"c0"},
			Ranks: 2,
		},
		OSTSkew: int(seed % 6),
		MaxTime: 60 * sim.Second,
	}
	if interfere {
		s.Interference = readInstances(2, 4)
		if task == io500.MdtEasyWrite {
			s.Interference = append(s.Interference, InterferenceSpec{
				Gen:   io500.New(io500.MdtHardWrite, io500.Params{Dir: "/bgmd", Ranks: 4, MdtFiles: 400}),
				Nodes: []string{"c5", "c6"},
				Ranks: 4,
			})
		}
	}
	if faulty {
		rng := sim.NewRNG(seed)
		slow := fmt.Sprintf("ost%d", rng.Intn(6))
		if task == io500.MdtEasyWrite {
			slow = "mdt"
		}
		s.RPCTimeout = sim.Time(50+rng.Intn(200)) * sim.Millisecond
		s.Faults = []fault.Spec{
			{Kind: fault.DiskSlow, Target: slow,
				Start: sim.Time(rng.Intn(300)) * sim.Millisecond, Duration: 2 * sim.Second,
				Severity: float64(4 + rng.Intn(36))},
			{Kind: fault.OSTStall, Target: fmt.Sprintf("ost%d", rng.Intn(6)),
				Start: sim.Time(rng.Intn(500)) * sim.Millisecond, Duration: sim.Second, Severity: 1},
		}
	}
	return s
}

// TestRecordCausality checks the client trace against what every layer
// below it must guarantee, on data and metadata targets, with and without
// interference and fault episodes, over three seeds each: every record ends
// no earlier than it started, each rank's sequence numbers run from 0 with
// no gap, a rank issues an op only after its previous one completed, every
// touched target index names a target of the cluster, and a finished run
// recorded every I/O op of every rank's stream.
func TestRecordCausality(t *testing.T) {
	for _, task := range []io500.Task{io500.IorEasyWrite, io500.MdtEasyWrite} {
		for _, interfere := range []bool{false, true} {
			for _, faulty := range []bool{false, true} {
				for seed := int64(1); seed <= 3; seed++ {
					s := causalityScenario(seed, task, interfere, faulty)
					name := fmt.Sprintf("%s/interference=%t/faults=%t/seed=%d", task, interfere, faulty, seed)
					t.Run(name, func(t *testing.T) {
						res := Run(s)
						if len(res.Records) == 0 {
							t.Fatal("no records")
						}
						checkCausality(t, s, res)
					})
				}
			}
		}
	}
}

func checkCausality(t *testing.T, s Scenario, res *RunResult) {
	t.Helper()
	next := make([]int, s.Target.Ranks)
	lastEnd := make([]sim.Time, s.Target.Ranks)
	for i, rec := range res.Records {
		if rec.Start > rec.End {
			t.Fatalf("record %d (rank %d seq %d) ends at %d before it starts at %d", i, rec.Rank, rec.Seq, rec.End, rec.Start)
		}
		if rec.Rank < 0 || rec.Rank >= s.Target.Ranks || rec.Iter != 0 {
			t.Fatalf("record %d: rank %d iter %d of a %d-rank target that does not loop", i, rec.Rank, rec.Iter, s.Target.Ranks)
		}
		if rec.Seq != next[rec.Rank] {
			t.Fatalf("record %d: rank %d seq %d, want %d (gap or reorder)", i, rec.Rank, rec.Seq, next[rec.Rank])
		}
		if rec.Start < lastEnd[rec.Rank] {
			t.Fatalf("record %d: rank %d seq %d starts at %d, before its previous op ended at %d",
				i, rec.Rank, rec.Seq, rec.Start, lastEnd[rec.Rank])
		}
		for _, tgt := range rec.Targets {
			if tgt < 0 || tgt >= res.NTargets {
				t.Fatalf("record %d: target %d outside [0, %d)", i, tgt, res.NTargets)
			}
		}
		next[rec.Rank]++
		lastEnd[rec.Rank] = rec.End
	}
	if !res.Finished {
		return
	}
	for r := range next {
		io := 0
		for _, op := range s.Target.Gen.Ops(r) {
			if op.Kind.IsIO() {
				io++
			}
		}
		if next[r] != io {
			t.Fatalf("finished run recorded %d ops for rank %d, its stream has %d", next[r], r, io)
		}
	}
}
