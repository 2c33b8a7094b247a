package metrics

import "sort"

// Layout is the immutable shape of a registry gather: the key and kind
// of every reading at its gathered position (direct instruments in
// creation order, then each source's readings in registration order),
// the permutation that sorts them by (node, layer, name), each source's
// readings sorted by name, and the interned "layer/name" totals slot of
// every counter. Report assembly and exports read values by position
// through it instead of sorting or hashing keys on every gather.
type Layout struct {
	direct int      // leading positions owned by direct instruments
	spans  [][2]int // per source: [start, end) positions
	keys   []Key
	kinds  []Kind
	sorted []int32 // (node, layer, name) order -> position

	// Per source: distinct reading names in ascending order, and the
	// position each reads from (the last of a repeated name wins, as a
	// map assignment would).
	srcNames [][]string
	srcPos   [][]int32

	totals    []string // distinct "layer/name" keys of all counters
	counters  []int32  // counter positions in sorted order
	totalSlot []int32  // parallel to counters: index into totals
}

// Len is the number of readings a gather produces.
func (l *Layout) Len() int { return len(l.keys) }

// Source returns source i's distinct reading names in ascending order
// and, parallel to them, the gathered positions to read their values
// from. Both slices are shared and must not be modified.
func (l *Layout) Source(i int) (names []string, pos []int32) {
	return l.srcNames[i], l.srcPos[i]
}

// Totals lists the distinct "layer/name" keys of every counter (in
// order of first appearance in the sorted gather): the slots
// SumCounters fills. The strings are shared across gathers.
func (l *Layout) Totals() []string { return l.totals }

// SumCounters adds every counter reading of vals (a gather's values) to
// its totals slot in acc, which must have len(Totals()) elements.
// Readings are added in (node, layer, name) order, so the float sums
// are the same as summing a sorted Gather.
func (l *Layout) SumCounters(vals []SnapshotValue, acc []float64) {
	for i, p := range l.counters {
		acc[l.totalSlot[i]] += vals[p].Value
	}
}

// matches reports whether source i produced the same reading names and
// kinds as when the layout was built. Names are almost always the same
// string constants, so the comparison rarely reads their bytes.
func (l *Layout) matches(i int, vals []SnapshotValue) bool {
	sp := l.spans[i]
	if sp[1]-sp[0] != len(vals) {
		return false
	}
	for j, v := range vals {
		p := sp[0] + j
		if v.Name != l.keys[p].Name || v.Kind != l.kinds[p] {
			return false
		}
	}
	return true
}

// buildLayout derives the layout of the gather just written to r.buf
// (with per-source ends in r.ends).
func (r *Registry) buildLayout() *Layout {
	vals := r.buf.Values
	n := len(vals)
	l := &Layout{
		direct: len(r.ordered),
		spans:  make([][2]int, len(r.sources)),
		keys:   make([]Key, n),
		kinds:  make([]Kind, n),
		sorted: make([]int32, n),
	}
	for i, in := range r.ordered {
		l.keys[i] = in.key
	}
	start := l.direct
	for i, src := range r.sources {
		end := r.ends[i]
		l.spans[i] = [2]int{start, end}
		for p := start; p < end; p++ {
			l.keys[p] = Key{Node: src.node, Layer: src.layer, Name: vals[p].Name}
		}
		start = end
	}
	for p, v := range vals {
		l.kinds[p] = v.Kind
		l.sorted[p] = int32(p)
	}
	sort.SliceStable(l.sorted, func(a, b int) bool {
		return l.keys[l.sorted[a]].less(l.keys[l.sorted[b]])
	})

	// Per-source name order, carved out of two shared backing arrays
	// sized for every source reading: appends never reallocate, so the
	// sub-slices cut along the way stay valid.
	names := make([]string, 0, n-l.direct)
	pos := make([]int32, 0, n-l.direct)
	l.srcNames = make([][]string, len(r.sources))
	l.srcPos = make([][]int32, len(r.sources))
	for i, sp := range l.spans {
		base := len(pos)
		for p := sp[0]; p < sp[1]; p++ {
			pos = append(pos, int32(p))
		}
		ps := pos[base:]
		sort.SliceStable(ps, func(a, b int) bool { return l.keys[ps[a]].Name < l.keys[ps[b]].Name })
		// Collapse repeated names onto their last reading.
		w := 0
		for _, p := range ps {
			if w > 0 && l.keys[ps[w-1]].Name == l.keys[p].Name {
				ps[w-1] = p
				continue
			}
			ps[w] = p
			w++
		}
		pos = pos[:base+w]
		nb := len(names)
		for _, p := range pos[base:] {
			names = append(names, l.keys[p].Name)
		}
		l.srcPos[i] = pos[base : base+w : base+w]
		l.srcNames[i] = names[nb : nb+w : nb+w]
	}

	// Totals slots, each "layer/name" key concatenated once per layout.
	slot := make(map[[2]string]int32)
	for _, p := range l.sorted {
		if l.kinds[p] != KindCounter {
			continue
		}
		k := [2]string{l.keys[p].Layer, l.keys[p].Name}
		s, ok := slot[k]
		if !ok {
			s = int32(len(l.totals))
			slot[k] = s
			l.totals = append(l.totals, k[0]+"/"+k[1])
		}
		l.counters = append(l.counters, p)
		l.totalSlot = append(l.totalSlot, s)
	}
	return l
}
