package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"slices"
	"sync/atomic"
	"time"
)

// layerID indexes layerNames.
type layerID uint8

const (
	layerHarness layerID = iota
	layerNet
	layerGateway
	layerFleet
	layerCore
	layerHypervisor
	layerMemplane
	layerMemctl
	layerRDMA
	layerTrace
	layerAutopilot
	layerConsolidation
	layerDCSim
	layerChaos
	layerScenario
)

// spanRec is one recorded span. Spans of one op share Req.
type spanRec struct {
	Parent int32
	Req    int32
	Layer  layerID
	Ladder bool
	Name   string
	Start  int64
	End    int64
}

// spanRef names an open span; id < 0 means "not recorded" (untraced run, an
// op the sampler skipped, or a full buffer) and every tracer method accepts it.
type spanRef struct {
	id  int32
	req int32
}

// noSpan is the reference of a span that is not recorded.
var noSpan = spanRef{id: -1, req: -1}

// tracer appends spans to a slice allocated once, from any goroutine, and
// writes them out when the run ends. A nil tracer records nothing.
type tracer struct {
	t0      time.Time
	spans   []spanRec
	n       atomic.Int32
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]spanRec, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) open(parent, req int32, layer layerID, name string, ladder bool) spanRef {
	i := t.n.Add(1) - 1
	if int(i) >= len(t.spans) {
		t.dropped.Add(1)
		return spanRef{id: -1, req: req}
	}
	t.spans[i] = spanRec{Parent: parent, Req: req, Layer: layer, Name: name, Ladder: ladder, Start: t.now()}
	return spanRef{id: i, req: req}
}

// root opens a span with no parent; req identifies the op.
func (t *tracer) root(req int32, layer layerID, name string) spanRef {
	if t == nil {
		return spanRef{id: -1, req: req}
	}
	return t.open(-1, req, layer, name, false)
}

// child opens a span under parent. A parent that was not recorded yields a
// child that is not recorded, so sampling applies to whole ops.
func (t *tracer) child(parent spanRef, layer layerID, name string) spanRef {
	if t == nil || parent.id < 0 {
		return spanRef{id: -1, req: parent.req}
	}
	return t.open(parent.id, parent.req, layer, name, false)
}

// ladder records a finished span of a ladder replay: the same op list run
// directly against one layer, outside any request.
func (t *tracer) ladder(layer layerID, name string, ns float64) {
	if t == nil {
		return
	}
	sp := t.open(-1, -1, layer, name, true)
	if sp.id >= 0 {
		t.spans[sp.id].End = t.spans[sp.id].Start + int64(ns)
	}
}

func (t *tracer) end(sp spanRef) {
	if t == nil || sp.id < 0 {
		return
	}
	t.spans[sp.id].End = t.now()
}

// recorded returns the spans written so far.
func (t *tracer) recorded() []spanRec {
	if t == nil {
		return nil
	}
	return t.spans[:min(int(t.n.Load()), len(t.spans))]
}

// write dumps the window's spans and the ladder's spans, each list with its
// own id space, as {id,parent,req,layer,name,start_ns,end_ns[,ladder]}. Every
// span of the ladder list is a probe's: either a directly replayed level
// ("ladder":true) or a span of the probe gateway.
func (t *tracer) write(path string, ladder *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"dropped\":%d,\"spans\":[", t.dropped.Load())
	writeSpans(w, t.recorded())
	w.WriteString("\n],\"ladder_spans\":[")
	writeSpans(w, ladder.recorded())
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeSpans(w *bufio.Writer, spans []spanRec) {
	for i, s := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"id\":%d,\"parent\":%d,\"req\":%d,\"layer\":%q,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d",
			i, s.Parent, s.Req, layerNames[s.Layer], s.Name, s.Start, s.End)
		if s.Ladder {
			w.WriteString(",\"ladder\":true")
		}
		w.WriteByte('}')
	}
}

// attribution is where the wall time of a traced window went.
type attribution struct {
	rootNs  float64   // summed duration of the root spans
	layerNs []float64 // self time per layer, indexed by layerID
	byName  map[spanKey]*nameAgg
}

// spanKey groups spans by layer and name.
type spanKey struct {
	layer layerID
	name  string
}

// nameAgg aggregates the spans sharing one layer and name.
type nameAgg struct {
	durNs float64 // summed duration
	durs  []int64 // every duration; its length is the span count
}

// find returns the aggregate of a layer's spans of one name, or nil.
func (a attribution) find(layer layerID, name string) *nameAgg {
	return a.byName[spanKey{layer, name}]
}

// attribute computes self times: a span's duration minus the part its
// children cover. Where children ran in parallel under one parent (a sharded
// dcsim run calling the planner from several goroutines) their summed
// durations can exceed the covered interval; each child's subtree is then
// weighted down by covered/sum so the parent's duration is conserved.
func attribute(spans []spanRec) attribution {
	a := attribution{layerNs: make([]float64, len(layerNames)), byName: make(map[spanKey]*nameAgg)}
	kids := make([][]int32, len(spans))
	var roots []int32
	for i, s := range spans {
		if s.Ladder || s.End < s.Start {
			continue
		}
		if s.Parent < 0 {
			roots = append(roots, int32(i))
		} else {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	type item struct {
		id int32
		w  float64
	}
	stack := make([]item, 0, 64)
	for _, r := range roots {
		a.rootNs += float64(spans[r].End - spans[r].Start)
		stack = append(stack, item{r, 1})
	}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		s := spans[it.id]
		dur := float64(s.End - s.Start)
		key := spanKey{s.Layer, s.Name}
		agg := a.byName[key]
		if agg == nil {
			agg = &nameAgg{}
			a.byName[key] = agg
		}
		agg.durNs += dur
		agg.durs = append(agg.durs, s.End-s.Start)

		covered, sum := coverage(spans, kids[it.id], s.Start, s.End)
		a.layerNs[s.Layer] += it.w * (dur - covered)
		if sum > 0 {
			cw := it.w * covered / sum
			for _, k := range kids[it.id] {
				stack = append(stack, item{k, cw})
			}
		}
	}
	return a
}

// coverage returns the length of the union of the children's intervals
// clipped to [start, end], and the sum of their clipped durations.
func coverage(spans []spanRec, kids []int32, start, end int64) (covered, sum float64) {
	if len(kids) == 0 {
		return 0, 0
	}
	type iv struct{ s, e int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		s, e := max(spans[k].Start, start), min(spans[k].End, end)
		if e > s {
			ivs = append(ivs, iv{s, e})
			sum += float64(e - s)
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int { return cmp.Compare(a.s, b.s) })
	var curS, curE int64 = -1, -1
	for _, v := range ivs {
		if v.s > curE {
			covered += float64(curE - curS)
			curS, curE = v.s, v.e
		} else if v.e > curE {
			curE = v.e
		}
	}
	covered += float64(curE - curS)
	return covered, sum
}
