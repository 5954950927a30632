package dcsim

import (
	"testing"

	"repro/internal/consolidation"
	"repro/internal/ident"
	"repro/internal/trace"
)

// TestFeedIsTheStream: on every bundled family at 2 000 tasks, the index's
// feed yields trace.Stream's events exactly — the same instants and kinds, and
// for each the rank of the stream's task — ties of both kinds included. At
// every 50th event the Fold of the running ranks is SumDemand of their
// demands in rank order, every field bit for bit.
func TestFeedIsTheStream(t *testing.T) {
	for _, fam := range trace.Families() {
		tr, err := fam.Generate(trace.FamilyParams{Machines: 100, HorizonSec: 24 * 3600, Tasks: 2000, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		idx := NewReplayIndex(tr)
		feed, stream := idx.Feed(), trace.NewStream(tr)
		var running ident.Set
		ties, folds := 0, 0
		for n, prev := 0, (Event{AtSec: -1}); ; n++ {
			want, more := stream.Next()
			got, ok := feed.Next()
			if ok != more {
				t.Fatalf("%s: after %d events the feed says more=%v, the stream %v", fam.Name(), n, ok, more)
			}
			if !ok {
				break
			}
			if got.AtSec != want.AtSec || got.Depart != (want.Kind == trace.Depart) || got.Rank != idx.Rank(want.Index) {
				t.Fatalf("%s: event %d is %+v, the stream's is %v of rank %d at %d",
					fam.Name(), n, got, want.Kind, idx.Rank(want.Index), want.AtSec)
			}
			if got.AtSec == prev.AtSec && got.Depart == prev.Depart {
				ties++
			}
			prev = got
			if got.Depart {
				running.Remove(ident.ID(got.Rank))
			} else {
				running.Add(ident.ID(got.Rank))
			}
			if n%50 == 0 {
				var vms []consolidation.VMDemand
				running.Each(func(rank ident.ID) { vms = append(vms, idx.Demand(int32(rank))) })
				if got, want := idx.Fold(&running), consolidation.SumDemand(vms); !bitEqual(got, want) {
					t.Fatalf("%s: after event %d the fold of %d VMs is\n%+v\nSumDemand\n%+v", fam.Name(), n, len(vms), got, want)
				}
				folds++
			}
		}
		if ties == 0 {
			t.Errorf("%s: no two events of one kind shared an instant", fam.Name())
		}
		t.Logf("%s: %d ties, %d folds checked", fam.Name(), ties, folds)
	}
}
