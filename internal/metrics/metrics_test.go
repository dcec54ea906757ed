package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestSeriesAddAndAccessors(t *testing.T) {
	s := NewSeries("u")
	s.Add(0, 1)
	s.Add(10, 2)
	s.Add(10, 3) // equal times allowed
	s.Add(20, 4)
	pts := s.Points()
	if len(pts) != 4 {
		t.Fatalf("%d points, want 4", len(pts))
	}
	if last := pts[3]; last.T != 20 || last.V != 4 {
		t.Errorf("last point = %+v", last)
	}
	if s.Name() != "u" {
		t.Errorf("Name = %q", s.Name())
	}
}

func TestSeriesTimeMonotonicityEnforced(t *testing.T) {
	s := NewSeries("u")
	s.Add(10, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards Add did not panic")
		}
	}()
	s.Add(5, 2)
}

func TestValueAtZeroOrderHold(t *testing.T) {
	s := NewSeries("u")
	s.Add(10, 1)
	s.Add(20, 2)
	if _, ok := s.ValueAt(5); ok {
		t.Error("ValueAt before first sample returned ok")
	}
	if v, _ := s.ValueAt(10); v != 1 {
		t.Errorf("ValueAt(10) = %v", v)
	}
	if v, _ := s.ValueAt(15); v != 1 {
		t.Errorf("ValueAt(15) = %v", v)
	}
	if v, _ := s.ValueAt(25); v != 2 {
		t.Errorf("ValueAt(25) = %v", v)
	}
}

func TestWindowAndMeanOver(t *testing.T) {
	s := NewSeries("u")
	for i := 0; i <= 10; i++ {
		s.Add(float64(i), float64(i))
	}
	w := s.Window(3, 6)
	if len(w) != 4 || w[0].T != 3 || w[3].T != 6 {
		t.Errorf("Window = %v", w)
	}
	if got := s.MeanOver(3, 6); got != 4.5 {
		t.Errorf("MeanOver = %v", got)
	}
	if got := s.MeanOver(100, 200); got != 0 {
		t.Errorf("MeanOver empty window = %v", got)
	}
}

func TestSummarize(t *testing.T) {
	s := NewSeries("u")
	for i := 1; i <= 100; i++ {
		s.Add(float64(i), float64(i))
	}
	sum := s.Summarize()
	if sum.N != 100 || sum.Min != 1 || sum.Max != 100 {
		t.Errorf("summary = %+v", sum)
	}
	if math.Abs(sum.Mean-50.5) > 1e-9 {
		t.Errorf("mean = %v", sum.Mean)
	}
	if math.Abs(sum.P50-50.5) > 1 {
		t.Errorf("p50 = %v", sum.P50)
	}
	if sum.P95 < 94 || sum.P95 > 97 {
		t.Errorf("p95 = %v", sum.P95)
	}
	if sum.First != 1 || sum.Last != 100 {
		t.Errorf("first/last = %v/%v", sum.First, sum.Last)
	}
	if sum.TimeMin != 1 || sum.TimeMax != 100 {
		t.Errorf("time extent = %v..%v", sum.TimeMin, sum.TimeMax)
	}
	empty := NewSeries("e").Summarize()
	if empty.N != 0 {
		t.Errorf("empty summary N = %d", empty.N)
	}
}

func TestRecorderSeriesAndCounters(t *testing.T) {
	r := NewRecorder()
	r.Series("a").Add(0, 1)
	r.Series("b").Add(0, 2)
	r.Series("a").Add(1, 3)
	names := r.SeriesNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("SeriesNames = %v", names)
	}
	if got := len(r.Series("a").Points()); got != 2 {
		t.Errorf("series a has %d points, want 2", got)
	}
}

func TestWriteLongCSV(t *testing.T) {
	r := NewRecorder()
	r.Series("x").Add(1, 10)
	r.Series("x").Add(2, 20)
	var sb strings.Builder
	if err := r.WriteLongCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "series,t,value\nx,1,10\nx,2,20\n"
	if sb.String() != want {
		t.Errorf("CSV = %q, want %q", sb.String(), want)
	}
}

func TestWriteWideCSV(t *testing.T) {
	r := NewRecorder()
	r.Series("a").Add(0, 1)
	r.Series("a").Add(10, 2)
	r.Series("b").Add(5, 7)
	var sb strings.Builder
	if err := r.WriteWideCSV(&sb, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "t,a,b" {
		t.Errorf("header = %q", lines[0])
	}
	// t=0: a=1, b missing; t=5: a holds 1, b=7; t=10: a=2, b holds 7.
	want := []string{"0,1,", "5,1,7", "10,2,7"}
	for i, w := range want {
		if lines[i+1] != w {
			t.Errorf("row %d = %q, want %q", i, lines[i+1], w)
		}
	}
	if err := r.WriteWideCSV(&sb, []string{"missing"}); err == nil {
		t.Error("unknown series accepted")
	}
}

func TestRenderASCII(t *testing.T) {
	a := NewSeries("alpha")
	b := NewSeries("beta")
	for i := 0; i <= 50; i++ {
		a.Add(float64(i), math.Sin(float64(i)/8))
		b.Add(float64(i), math.Cos(float64(i)/8))
	}
	var sb strings.Builder
	if err := RenderASCII(&sb, "test chart", []*Series{a, b}, 60, 12); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "test chart") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "beta") {
		t.Error("missing legend")
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Error("missing plot glyphs")
	}
}

func TestRenderASCIIEmpty(t *testing.T) {
	var sb strings.Builder
	if err := RenderASCII(&sb, "empty", []*Series{NewSeries("none")}, 40, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "(no data)") {
		t.Error("missing empty-data notice")
	}
}

func TestRenderASCIIFlatSeries(t *testing.T) {
	s := NewSeries("flat")
	s.Add(0, 5)
	s.Add(10, 5)
	var sb strings.Builder
	if err := RenderASCII(&sb, "", []*Series{s}, 40, 8); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "*") {
		t.Error("flat series not plotted")
	}
}

func TestSlice(t *testing.T) {
	s := NewSeries("u")
	for i := 0; i <= 10; i++ {
		s.Add(float64(i), float64(i*i))
	}
	sub := s.Slice(3, 7)
	if sub.Name() != "u" {
		t.Errorf("Slice lost name: %q", sub.Name())
	}
	if len(sub.Points()) != 5 {
		t.Fatalf("Slice len = %d, want 5", len(sub.Points()))
	}
	if sub.Points()[0].T != 3 || sub.Points()[4].T != 7 {
		t.Errorf("Slice window wrong: %v", sub.Points())
	}
	// The original is untouched.
	if len(s.Points()) != 11 {
		t.Errorf("source mutated: len %d", len(s.Points()))
	}
}
