package store

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
)

// linearRef is the historical single-slice store engine, kept verbatim as
// the behavioral oracle: the sharded, indexed engine must answer every
// query exactly as this linear scan does, and serialize to identical
// bytes for the same sequence of adds.
type linearRef struct {
	obs []Observation
}

func (s *linearRef) add(o Observation)       { s.obs = append(s.obs, o) }
func (s *linearRef) addAll(os []Observation) { s.obs = append(s.obs, os...) }

func (s *linearRef) lenOK() int {
	n := 0
	for _, o := range s.obs {
		if o.OK {
			n++
		}
	}
	return n
}

func (s *linearRef) filter(q Query) []Observation {
	var out []Observation
	for _, o := range s.obs {
		if refKeep(q, o) {
			out = append(out, o)
		}
	}
	return out
}

// refKeep is the oracle's per-row predicate: the Query field semantics,
// checked one field at a time.
func refKeep(q Query, o Observation) bool {
	if q.Domain != "" && o.Domain != q.Domain {
		return false
	}
	if q.SKU != "" && o.SKU != q.SKU {
		return false
	}
	if q.Source != "" && o.Source != q.Source {
		return false
	}
	if q.VP != "" && o.VP != q.VP {
		return false
	}
	if q.Tenant != "" && o.Tenant != q.Tenant {
		return false
	}
	if q.Round >= 0 && o.Round != q.Round {
		return false
	}
	if q.OnlyOK && !o.OK {
		return false
	}
	if !q.Since.IsZero() && o.Time.Before(q.Since) {
		return false
	}
	if !q.Until.IsZero() && !o.Time.Before(q.Until) {
		return false
	}
	return true
}

func (s *linearRef) domains() []string {
	set := map[string]bool{}
	for _, o := range s.obs {
		set[o.Domain] = true
	}
	out := make([]string, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

func (s *linearRef) products(domain string) []Key {
	set := map[Key]bool{}
	for _, o := range s.obs {
		if o.Domain == domain {
			set[Key{Domain: o.Domain, SKU: o.SKU}] = true
		}
	}
	out := make([]Key, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SKU < out[j].SKU })
	return out
}

func (s *linearRef) groupByProduct(source string) map[Key][]Observation {
	out := map[Key][]Observation{}
	for _, o := range s.obs {
		if source != "" && o.Source != source {
			continue
		}
		k := Key{Domain: o.Domain, SKU: o.SKU}
		out[k] = append(out[k], o)
	}
	return out
}

func (s *linearRef) writeJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range s.obs {
		if err := enc.Encode(&s.obs[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
