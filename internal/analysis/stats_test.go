package analysis

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestBoxBasics(t *testing.T) {
	b := Box([]float64{1, 2, 3, 4, 5})
	if b.Min != 1 || b.Max != 5 || b.Median != 3 || b.N != 5 {
		t.Fatalf("Box = %+v", b)
	}
	if b.Q1 != 2 || b.Q3 != 4 {
		t.Fatalf("quartiles = %v %v", b.Q1, b.Q3)
	}
}

func TestBoxEmpty(t *testing.T) {
	b := Box(nil)
	if b.N != 0 {
		t.Fatal("empty box has data")
	}
	if b.String() != "(no data)" {
		t.Fatalf("String = %q", b.String())
	}
}

func TestBoxDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Box(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("Box sorted the caller's slice")
	}
}

func TestQuantileInterpolation(t *testing.T) {
	v := []float64{10, 20, 30, 40}
	cases := []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {0.25, 17.5}, {0.75, 32.5},
	}
	for _, c := range cases {
		if got := Quantile(v, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantilePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Quantile(nil, 0.5)
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Fatalf("Median = %v", got)
	}
}

func TestBoxOrderingInvariant(t *testing.T) {
	f := func(raw []float64) bool {
		var vals []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		b := Box(vals)
		return b.Min <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuantileMonotoneInQ(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		var vals []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		sort.Float64s(vals)
		a := math.Mod(math.Abs(q1), 1)
		b := math.Mod(math.Abs(q2), 1)
		if a > b {
			a, b = b, a
		}
		return Quantile(vals, a) <= Quantile(vals, b)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
