package autopilot

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/consolidation"
	"repro/internal/trace"
)

// walkRoster decodes 1 to 4 bundled policies from the fuzz argument: the low
// two bits give the count, then each policy takes four bits, a policy kind and
// one of four planners. The planners are shared instances, so two policies of
// one planner size through one lane, and the wrapper around ZombieStack is a
// planner of its own. mk returns a fresh roster on every call.
func walkRoster(code uint32) (mk func() []Policy, names []string) {
	zs := consolidation.NewZombieStack()
	planners := []consolidation.Policy{consolidation.NewNeat(), consolidation.NewOasis(), zs, planOnly{zs}}
	kinds := []func(consolidation.Policy) Policy{
		func(b consolidation.Policy) Policy { return NewReactive(b) },
		func(b consolidation.Policy) Policy { return NewHysteresis(b) },
		func(b consolidation.Policy) Policy { return NewPredictiveEWMA(b) },
	}
	type pick struct{ kind, planner int }
	var picks []pick
	for k := range 1 + int(code%4) {
		bits := int(code >> (2 + 4*k) & 0xf)
		p := pick{kind: bits % 3, planner: bits / 3 % 4}
		picks = append(picks, p)
		names = append(names, fmt.Sprintf("%d/%d", p.kind, p.planner))
	}
	return func() []Policy {
		roster := make([]Policy, len(picks))
		for i, p := range picks {
			roster[i] = kinds[p.kind](planners[p.planner])
		}
		return roster
	}, names
}

// FuzzOneWalk is the law of the one walk: a replay without chaos carries all
// its policies as lanes of one walk over one feed, and every lane's Result is
// that policy's lone Run, field for field. CompareOnline reports what Regret
// reports per policy, and a chaos row, under an empty plan and under a light
// one, what RunChaos reports per policy. The traces are intervalTrace's
// (shared starts and ends, repeated IDs, idle VMs, boundary-hugging demands,
// rejections on small fleets), and the roster mixes the bundled policies over
// Neat, Oasis, ZombieStack and a wrapper around ZombieStack. The corpus under
// testdata/fuzz holds rosters of one to four policies on boundary traces that
// need emergency wakes and on one- and eight-server fleets that reject.
func FuzzOneWalk(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, size uint16, shape uint8, total uint16, code uint32) {
		tr := intervalTrace(seed, size, shape, total)
		mk, names := walkRoster(code)
		cfg := baseConfig(tr)
		w := newWalk(&cfg, mustIndex(t, tr), mk())
		if err := w.run(); err != nil {
			t.Fatal(err)
		}
		for i, pol := range mk() {
			lone := cfg
			lone.Policy = pol
			want, err := Run(lone)
			if err != nil {
				t.Fatal(err)
			}
			if got := w.lanes[i].res; !reflect.DeepEqual(got, want) {
				t.Fatalf("roster %v, lane %d of %d: the walk ran\n%+v\nRun alone\n%+v", names, i, len(names), got, want)
			}
		}

		reports, err := CompareOnline(cfg, mk())
		if err != nil {
			t.Fatal(err)
		}
		light, err := chaos.Scenario("light", tr.HorizonSec, tr.Machines, seed)
		if err != nil {
			t.Fatal(err)
		}
		rows := map[string][]chaos.Report{}
		for _, plan := range []*chaos.Plan{{Name: "off"}, light} {
			row, err := NewChaosRow(cfg, plan, mk())
			if err != nil {
				t.Fatal(err)
			}
			if err := runJobs(row.Jobs()); err != nil {
				t.Fatal(err)
			}
			rows[plan.Name] = row.Reports()
		}
		for i, pol := range mk() {
			lone := cfg
			lone.Policy = pol
			want, err := Regret(lone)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(reports[i], want) {
				t.Fatalf("roster %v, policy %d: CompareOnline reports\n%+v\nRegret alone\n%+v", names, i, reports[i], want)
			}
			for _, plan := range []*chaos.Plan{{Name: "off"}, light} {
				want, err := RunChaos(lone, plan)
				if err != nil {
					t.Fatal(err)
				}
				if got := rows[plan.Name][i]; !reflect.DeepEqual(got, want) {
					t.Fatalf("roster %v, policy %d, plan %s: the row reports\n%+v\nRunChaos alone\n%+v", names, i, plan.Name, got, want)
				}
			}
		}
	})
}

// BenchmarkOneWalk times a walk of one lane and a walk that carries the three
// bundled policies over one planner, on a 20 000-task mlbatch trace: the
// second shares the feed, the books, the tick's fold and the sizing of each
// arrival, and pays only for three postures and ledgers.
func BenchmarkOneWalk(b *testing.B) {
	tr, err := trace.GenerateFamily("mlbatch", trace.FamilyParams{Machines: 400, HorizonSec: 24 * 3600, Tasks: 20000, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	idx := mustIndex(b, tr)
	for _, lanes := range []int{1, 3} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				cfg := baseConfig(tr)
				if err := newWalk(&cfg, idx, Policies(consolidation.NewNeat())[:lanes]).run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
