package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Snapshot is a point-in-time copy of every metric in a registry, the unit
// of export: rendered as text or JSON, served over HTTP by Handler.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Snapshot copies the current value of every registered metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// Scoped returns the subset of the snapshot whose names start with
// "scope." (or equal scope exactly).
func (s Snapshot) Scoped(scope string) Snapshot {
	in := func(name string) bool {
		return name == scope || (len(name) > len(scope) &&
			name[:len(scope)] == scope && name[len(scope)] == '.')
	}
	out := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistSnapshot{},
	}
	for name, v := range s.Counters {
		if in(name) {
			out.Counters[name] = v
		}
	}
	for name, v := range s.Gauges {
		if in(name) {
			out.Gauges[name] = v
		}
	}
	for name, h := range s.Histograms {
		if in(name) {
			out.Histograms[name] = h
		}
	}
	return out
}

// WriteText renders the snapshot as sorted, line-oriented text:
//
//	counter turboca.nbo_rounds 96
//	hist    fastack.ampdu_bytes count=10 min=... p50=... unit=bytes
func (s Snapshot) WriteText(w io.Writer) (int64, error) {
	var n int64
	emit := func(format string, args ...any) error {
		m, err := fmt.Fprintf(w, format, args...)
		n += int64(m)
		return err
	}
	for _, name := range sortedKeys(s.Counters) {
		if err := emit("counter %s %d\n", name, s.Counters[name]); err != nil {
			return n, err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		if err := emit("gauge   %s %d\n", name, s.Gauges[name]); err != nil {
			return n, err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		unit := h.Unit
		if unit == "" {
			unit = "-"
		}
		if err := emit("hist    %s count=%d min=%d max=%d mean=%.1f p50=%d p95=%d p99=%d unit=%s\n",
			name, h.Count, h.Min, h.Max, h.Mean, h.P50, h.P95, h.P99, unit); err != nil {
			return n, err
		}
	}
	return n, nil
}

// WriteJSON renders the snapshot as indented JSON with sorted keys
// (encoding/json orders map keys), the expvar-style payload the HTTP
// handler serves.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Scopes lists the distinct first name components present in the
// snapshot, sorted — the set of subsystems that have recorded anything.
func (s Snapshot) Scopes() []string {
	set := map[string]bool{}
	add := func(name string) {
		for i := 0; i < len(name); i++ {
			if name[i] == '.' {
				set[name[:i]] = true
				return
			}
		}
		set[name] = true
	}
	for name := range s.Counters {
		add(name)
	}
	for name := range s.Gauges {
		add(name)
	}
	for name := range s.Histograms {
		add(name)
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
