package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 || s.Mean != 0 || s.StdDev != 0 {
		t.Fatalf("expected zero summary, got %+v", s)
	}
}

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if s.Mean != 3 {
		t.Fatalf("mean = %v, want 3", s.Mean)
	}
	if s.Min != 1 || s.Max != 5 {
		t.Fatalf("min/max = %v/%v, want 1/5", s.Min, s.Max)
	}
	if math.Abs(s.StdDev-math.Sqrt(2.5)) > 1e-9 {
		t.Fatalf("stddev = %v, want %v", s.StdDev, math.Sqrt(2.5))
	}
	if s.P50 != 3 {
		t.Fatalf("p50 = %v, want 3", s.P50)
	}
}

func TestPercentileEdges(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	if got := Percentile(sorted, 0); got != 10 {
		t.Errorf("p0 = %v, want 10", got)
	}
	if got := Percentile(sorted, 1); got != 40 {
		t.Errorf("p100 = %v, want 40", got)
	}
	if got := Percentile(sorted, 0.5); got != 25 {
		t.Errorf("p50 = %v, want 25", got)
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
}

func TestNearestRank(t *testing.T) {
	sorted := []int64{10, 20, 30, 40}
	cases := []struct {
		q    int
		want int64
	}{
		{0, 10}, {-5, 10}, // clamped to the minimum
		{25, 10},             // ceil(0.25*4)-1 = 0
		{50, 20},             // ceil(0.50*4)-1 = 1
		{51, 30},             // ceil(0.51*4)-1 = 2: the next observed value, no interpolation
		{99, 40},             // ceil(0.99*4)-1 = 3
		{100, 40}, {150, 40}, // clamped to the maximum
	}
	for _, tc := range cases {
		if got := NearestRank(sorted, tc.q); got != tc.want {
			t.Errorf("NearestRank(q=%d) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := NearestRank(nil, 50); got != 0 {
		t.Errorf("empty NearestRank = %d, want 0", got)
	}
	if got := NearestRank([]int64{7}, 99); got != 7 {
		t.Errorf("singleton NearestRank = %d, want 7", got)
	}
}

func TestPercentileWithinRangeProperty(t *testing.T) {
	f := func(raw []float64, p float64) bool {
		sample := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				sample = append(sample, v)
			}
		}
		if len(sample) == 0 {
			return true
		}
		s := Summarize(sample)
		pp := math.Abs(math.Mod(p, 1))
		sorted := append([]float64(nil), sample...)
		sortFloats(sorted)
		v := Percentile(sorted, pp)
		return v >= s.Min-1e-9 && v <= s.Max+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func sortFloats(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Title", "a", "bbbb")
	tb.AddRow("1", "2")
	tb.AddRowf(3.5, "x")
	out := tb.String()
	if !strings.Contains(out, "Title") {
		t.Errorf("missing title in %q", out)
	}
	if !strings.Contains(out, "bbbb") {
		t.Errorf("missing header in %q", out)
	}
	if !strings.Contains(out, "3.50") {
		t.Errorf("missing formatted float in %q", out)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		3:      "3",
		3.14:   "3.14",
		0.1234: "0.123",
		123.45: "123.5",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
	if got := FormatFloat(math.Inf(1)); got != "inf" {
		t.Errorf("FormatFloat(+Inf) = %q", got)
	}
	if got := FormatPercent(math.Inf(1)); got != "inf" {
		t.Errorf("FormatPercent(+Inf) = %q", got)
	}
	if got := FormatPercent(12.5); got != "12.50%" {
		t.Errorf("FormatPercent(12.5) = %q", got)
	}
}

func TestSeriesAndRender(t *testing.T) {
	s1 := &Series{Name: "native"}
	s2 := &Series{Name: "zombie"}
	for i := 0; i < 4; i++ {
		s1.Add(float64(i*20), float64(10+i))
		s2.Add(float64(i*20), float64(5+i))
	}
	if s1.Len() != 4 {
		t.Fatalf("series len = %d, want 4", s1.Len())
	}
	out := RenderSeries("fig", "wss", s1, s2)
	if !strings.Contains(out, "native") || !strings.Contains(out, "zombie") {
		t.Errorf("series names missing in %q", out)
	}
	lines := strings.Count(out, "\n")
	if lines < 6 {
		t.Errorf("expected at least 6 lines, got %d:\n%s", lines, out)
	}
}
