package hbsp

import (
	"testing"

	"hbspk/internal/fabric"
	"hbspk/internal/model"
)

// The reorg makespan bench backs the PR's acceptance gate: under a
// straggler-heavy seeded chaos plan, a run that rebalances the tree
// from measured estimates must beat the frozen-tree baseline on
// modeled makespan. The workload partitions each round's work by the
// current balanced share c_{i,j} — exactly what the paper's balanced
// distributions do — so a share that keeps pointing at a machine whose
// measured speed collapsed keeps gating the superstep, and rebalancing
// pays for itself. hbspk-benchjson enforces the win via this line of
// bench/gates.txt:
//
//	hbspk/internal/hbsp BenchmarkReorgMakespan/reorg model-cost <= 0.9 x BenchmarkReorgMakespan/frozen pairs>=1

// reorgBenchProg charges share-proportional work each round: the
// modeled equivalent of repartitioning the problem from the tree's
// current layout every superstep.
func reorgBenchProg(rounds int, scale float64) Program {
	return func(c Ctx) error {
		for r := 0; r < rounds; r++ {
			c.Charge(scale * c.Self().Share)
			if err := c.Sync(c.Tree().Root, "bench"); err != nil {
				return err
			}
		}
		return nil
	}
}

func benchReorgMakespan(b *testing.B, every int) {
	base := model.UCFTestbedN(8)
	plan := &fabric.ChaosPlan{
		Seed: 42,
		Stragglers: []fabric.Straggler{
			// The fastest leaf — holding the largest balanced share —
			// collapses to a tenth of its modeled speed for the whole run.
			{Pid: 0, FromStep: 0, ToStep: 1 << 20, Factor: 10},
		},
	}
	var makespan float64
	for i := 0; i < b.N; i++ {
		tr := base.Clone()
		eng := NewVirtual(tr, fabric.New(tr, fabric.PureModel()))
		eng.Chaos = plan
		eng.ReorgEvery = every
		eng.ReorgSeed = 42
		rep, err := eng.Run(reorgBenchProg(24, 1e6))
		if err != nil {
			b.Fatal(err)
		}
		makespan = rep.Total
	}
	b.ReportMetric(makespan, "model-cost")
}

func BenchmarkReorgMakespan(b *testing.B) {
	b.Run("frozen", func(b *testing.B) { benchReorgMakespan(b, 0) })
	b.Run("reorg", func(b *testing.B) { benchReorgMakespan(b, 2) })
}
