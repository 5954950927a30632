package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds basic descriptive statistics for a sample.
type Summary struct {
	Count  int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	P50    float64
	P90    float64
	P99    float64
}

// Summarize computes descriptive statistics for the sample. A nil or empty
// sample yields a zero Summary.
func Summarize(sample []float64) Summary {
	if len(sample) == 0 {
		return Summary{}
	}
	s := Summary{Count: len(sample), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, v := range sample {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(len(sample))
	var ss float64
	for _, v := range sample {
		d := v - s.Mean
		ss += d * d
	}
	if len(sample) > 1 {
		s.StdDev = math.Sqrt(ss / float64(len(sample)-1))
	}
	sorted := append([]float64(nil), sample...)
	sort.Float64s(sorted)
	s.P50 = Percentile(sorted, 0.50)
	s.P90 = Percentile(sorted, 0.90)
	s.P99 = Percentile(sorted, 0.99)
	return s
}

// Percentile returns the p-th percentile (0 <= p <= 1) of an already sorted
// sample using linear interpolation between closest ranks.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	rank := p * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// NearestRank returns the q-th percentile (q in percent; q=100 is the max)
// of an already sorted int64 series using the nearest-rank method: the
// smallest element with at least q% of the sample at or below it. Unlike
// Percentile it never interpolates, so the result is always an observed
// value — the convention the latency reports (membench, fleetload) share.
func NearestRank(sorted []int64, q int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 100 {
		return sorted[len(sorted)-1]
	}
	idx := (len(sorted)*q+99)/100 - 1 // ceil(q/100 * n) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// Table renders aligned textual tables used by the cmd tools to print the
// paper's tables and figure series.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row. Cells beyond the header count are kept; short rows are
// padded with empty cells when rendering.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// AddRowf appends a row formatting every cell with fmt.Sprint.
func (t *Table) AddRowf(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	cols := len(t.headers)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	for i, h := range t.headers {
		if len(h) > widths[i] {
			widths[i] = len(h)
		}
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			fmt.Fprintf(&b, "%-*s", widths[i]+2, c)
		}
		b.WriteByte('\n')
	}
	if len(t.headers) > 0 {
		writeRow(t.headers)
		sep := make([]string, len(t.headers))
		for i, w := range widths[:len(t.headers)] {
			sep[i] = strings.Repeat("-", w)
		}
		writeRow(sep)
	}
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// FormatFloat renders a float compactly: integers without decimals, large
// values with one decimal, small values with three significant decimals, and
// infinities as the symbol the paper uses.
func FormatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "inf"
	case math.IsInf(v, -1):
		return "-inf"
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e9:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// FormatPercent renders v (already in percent units) with a trailing %.
func FormatPercent(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	return FormatFloat(v) + "%"
}

// Series is a named (x, y) series used when regenerating the paper's figures.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends an (x, y) point to the series.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points in the series.
func (s *Series) Len() int { return len(s.X) }

// RenderSeries renders one or more series that share an x axis as a table with
// an "x" column followed by one column per series.
func RenderSeries(title, xLabel string, series ...*Series) string {
	headers := append([]string{xLabel}, make([]string, len(series))...)
	for i, s := range series {
		headers[i+1] = s.Name
	}
	t := NewTable(title, headers...)
	n := 0
	for _, s := range series {
		if s.Len() > n {
			n = s.Len()
		}
	}
	for i := 0; i < n; i++ {
		row := make([]string, len(series)+1)
		for j, s := range series {
			if i < s.Len() {
				if j == 0 {
					row[0] = FormatFloat(s.X[i])
				}
				row[j+1] = FormatFloat(s.Y[i])
			}
		}
		t.AddRow(row...)
	}
	return t.String()
}
