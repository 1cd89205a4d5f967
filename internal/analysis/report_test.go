package analysis

import (
	"strings"
	"testing"
	"time"

	"sheriff/internal/store"
)

// TestRenderFiguresRejectsUnknownSelection pins the renderer's error for
// a figure or level it does not know: it names the valid values and
// renders nothing.
func TestRenderFiguresRejectsUnknownSelection(t *testing.T) {
	st := store.New()
	for _, c := range []struct {
		sel  Selection
		want string
	}{
		{Selection{Fig: "11"}, `analysis: unknown figure "11" (want all, 1, 2, 3, 4, 5, 6, 7, 8, 9, repeat, 10)`},
		{Selection{Fig: "fig1"}, `analysis: unknown figure "fig1" (want all, 1, 2, 3, 4, 5, 6, 7, 8, 9, repeat, 10)`},
		{Selection{Fig: "8", Domain: "www.homedepot.com", Level: "town"}, `analysis: unknown level "town" (want city, country)`},
	} {
		out, err := RenderFigures(st, market, c.sel)
		if err == nil || err.Error() != c.want {
			t.Errorf("RenderFigures(%+v) error = %v, want %q", c.sel, err, c.want)
		}
		if out != "" {
			t.Errorf("RenderFigures(%+v) rendered %q alongside its error", c.sel, out)
		}
		if err := c.sel.Validate(); err == nil || err.Error() != c.want {
			t.Errorf("Validate(%+v) = %v, want %q", c.sel, err, c.want)
		}
	}
	for _, sel := range []Selection{{}, {Fig: "all"}, {Fig: "repeat"}, {Fig: "8", Level: "country"}} {
		if _, err := RenderFigures(st, market, sel); err != nil {
			t.Errorf("RenderFigures(%+v): %v", sel, err)
		}
	}
}

// TestRenderFiguresSelects: one figure renders alone, "all" renders
// every figure with data, and a figure with no data is left out.
func TestRenderFiguresSelects(t *testing.T) {
	st := store.New()
	for i := 0; i < 3; i++ {
		addCheck(st, "varies.com", "V-1", t0.Add(time.Duration(i)*time.Hour),
			map[string]int64{"a": 10000, "b": 13000})
	}
	all, err := RenderFigures(st, market, Selection{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fig. 1 —", "Fig. 2 —", "varies.com"} {
		if !strings.Contains(all, want) {
			t.Errorf("all figures missing %q:\n%s", want, all)
		}
	}
	if strings.Contains(all, "Fig. 3 —") {
		t.Errorf("Fig. 3 rendered without crawl data:\n%s", all)
	}
	if strings.Contains(all, "Fig. 7 —") {
		t.Errorf("Fig. 7 rendered without crawl data:\n%s", all)
	}
	one, err := RenderFigures(st, market, Selection{Fig: "2"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(one, "Fig. 2 —") || strings.Contains(one, "Fig. 1 —") {
		t.Errorf("-fig 2 rendered:\n%s", one)
	}
	if !strings.Contains(all, one) {
		t.Errorf("Fig. 2 alone differs from its rendering among all figures:\n%s", one)
	}
}
