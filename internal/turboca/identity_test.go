package turboca

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/spectrum"
)

// An AP is its position in Input.APs and APView.ID is a label. Until that
// was so, Neighbors held IDs and every newPlanner resolved them through a
// map; these tests hold the positional planner to that build.

// refNeigh is the neighbor table newPlanner built from an input whose
// Neighbors hold AP IDs: each ID resolved through a map from ID to
// position — the last view carrying it, on a duplicate — and an ID no view
// carries dropped.
func refNeigh(lab Input) [][]int {
	idxOf := make(map[int]int, len(lab.APs))
	for i := range lab.APs {
		idxOf[lab.APs[i].ID] = i
	}
	neigh := make([][]int, len(lab.APs))
	for i := range lab.APs {
		for _, nid := range lab.APs[i].Neighbors {
			if j, ok := idxOf[nid]; ok {
				neigh[i] = append(neigh[i], j)
			}
		}
	}
	return neigh
}

// positional writes an ID-labelled graph into positional Neighbors, the
// way a producer that still thinks in IDs has to: each ID becomes the
// position of the last view carrying it, and one no view carries stays as
// it is — callers keep those outside [0, len(APs)), where they are no
// position either.
func positional(lab Input) Input {
	at := make(map[int]int, len(lab.APs))
	for i := range lab.APs {
		at[lab.APs[i].ID] = i
	}
	in := lab
	in.APs = append([]APView(nil), lab.APs...)
	for i := range in.APs {
		ns := append([]int(nil), in.APs[i].Neighbors...)
		for k, id := range ns {
			if j, ok := at[id]; ok {
				ns[k] = j
			}
		}
		in.APs[i].Neighbors = ns
	}
	return in
}

// relabel returns in — positional, as hostileInput and randomInput draw
// it — as an ID-labelled input under fresh IDs that are not positions: a
// permutation of the positions themselves, or sparse numbers, and on some
// draws one ID given to two views. An entry that was no position becomes
// a negative ID, which nothing carries. distinct reports whether every
// view got an ID of its own.
func relabel(r *rand.Rand, in Input) (lab Input, distinct bool) {
	n := len(in.APs)
	ids := r.Perm(n)
	if r.Intn(2) == 0 {
		for i := range ids {
			ids[i] = 2000 + 3*ids[i] + r.Intn(3)
		}
	}
	distinct = true
	if n > 1 && r.Intn(6) == 0 {
		i, j := r.Intn(n), r.Intn(n)
		ids[i], distinct = ids[j], i == j
	}
	lab = in
	lab.APs = append([]APView(nil), in.APs...)
	for i := range lab.APs {
		v := &lab.APs[i]
		v.ID = ids[i]
		ns := append([]int(nil), v.Neighbors...)
		for k, j := range ns {
			if uint(j) < uint(n) {
				ns[k] = ids[j]
			} else {
				ns[k] = -1 - r.Intn(40)
			}
		}
		v.Neighbors = ns
	}
	return lab, distinct
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// TestPositionalPlannerMatchesIDResolved: over random and hostile inputs,
// as drawn (ID == position) and relabelled (ID != position, duplicates
// among them), the planner's neighbor table is entry for entry the one the
// ID-resolving build made of the same graph, Digest folds the bytes
// refDigest folds over the ID-labelled form, and nothing the planner
// computes depends on what the labels are: RunNBO and NetP give the same
// bits, and the same plan under the labels, as on the input with every ID
// reset to its position.
func TestPositionalPlannerMatchesIDResolved(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 2
	for seed := int64(0); seed < 480; seed++ {
		r := rand.New(rand.NewSource(seed))
		var lab Input
		distinct := true
		switch seed % 4 {
		case 0: // sanitized, as drawn: an ID is already its position
			lab = randomInput(r)
		case 1:
			lab, distinct = relabel(r, randomInput(r))
		case 2: // dangling, self, doubled and one-way edges, duplicate IDs
			lab, distinct = relabel(r, hostileInput(r))
		case 3: // the same, after Sanitize has renumbered what it dropped
			in := hostileInput(r)
			in.Sanitize()
			lab, distinct = relabel(r, in)
		}
		in := positional(lab)

		got, want := newPlanner(cfg, in).neigh, refNeigh(lab)
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("seed %d AP %d (ID %d, neighbors %v): neigh %v, ID-resolved %v",
					seed, i, lab.APs[i].ID, lab.APs[i].Neighbors, got[i], want[i])
			}
		}
		if got, want := in.Digest(), refDigest(mirror(lab)); got != want {
			t.Fatalf("seed %d: Digest %#x, reference over ID-labelled neighbors %#x", seed, got, want)
		}

		plain := in
		plain.APs = append([]APView(nil), in.APs...)
		for i := range plain.APs {
			plain.APs[i].ID = i
		}
		a := RunNBO(cfg, in, rand.New(rand.NewSource(seed)), []int{1, 0})
		b := RunNBO(cfg, plain, rand.New(rand.NewSource(seed)), []int{1, 0})
		if !sameBits(a.LogNetP, b.LogNetP) || a.Rounds != b.Rounds || a.Improved != b.Improved {
			t.Fatalf("seed %d: labels changed the pass: (%v, %d, %v) vs (%v, %d, %v) with ID == position",
				seed, a.LogNetP, a.Rounds, a.Improved, b.LogNetP, b.Rounds, b.Improved)
		}
		if !distinct {
			continue // two views share a Plan entry: nothing to compare it to
		}
		if a.Switches != b.Switches || len(a.Plan) != len(b.Plan) {
			t.Fatalf("seed %d: labels changed the plan: %d switches over %d APs vs %d over %d",
				seed, a.Switches, len(a.Plan), b.Switches, len(b.Plan))
		}
		for i := range in.APs {
			if a.Plan[in.APs[i].ID] != b.Plan[i] {
				t.Fatalf("seed %d AP %d: %v under ID %d, %v under its position",
					seed, i, a.Plan[in.APs[i].ID], in.APs[i].ID, b.Plan[i])
			}
		}
		if x, y := NetP(cfg, in, a.Plan), NetP(cfg, plain, b.Plan); !sameBits(x, y) {
			t.Fatalf("seed %d: NetP %v under labels, %v under positions", seed, x, y)
		}
	}
}

// TestSanitizeDuplicateRenumbers: dropping a duplicate view moves every
// later view up one, so every edge is renumbered, and an edge to the
// dropped view lands on the first view of its ID.
func TestSanitizeDuplicateRenumbers(t *testing.T) {
	in := chainInput(5, spectrum.W80, 1.0) // 0-1-2-3-4
	dup := in.APs[1]
	dup.Load = 99
	dup.Neighbors = []int{4}
	// Positions: 0 1 [2 = duplicate of 1] 3 4 5, the chain's 2-3-4 now 3-4-5.
	in.APs = slices.Insert(in.APs, 2, dup)
	for i := range in.APs {
		if i == 2 {
			continue
		}
		ns := append([]int(nil), in.APs[i].Neighbors...)
		for k, j := range ns {
			if j >= 2 {
				ns[k] = j + 1
			}
		}
		in.APs[i].Neighbors = ns
	}
	in.APs[5].Neighbors = append(in.APs[5].Neighbors, 2) // 4 hears the duplicate
	in.APs[1].Neighbors = append(in.APs[1].Neighbors, 2) // and 1 hears "itself"
	shared := in.APs[3].Neighbors                        // 2's list, {1, 4} before the insert
	before := slices.Clone(shared)

	if fixes := in.Sanitize(); fixes != 2 { // the view, and 1's edge to it: a self-loop
		t.Fatalf("fixes = %d, want 2", fixes)
	}
	want := [][]int{{1}, {0, 2}, {1, 3}, {2, 4}, {3, 1}}
	if len(in.APs) != len(want) {
		t.Fatalf("%d views after dedup, want %d", len(in.APs), len(want))
	}
	for i, w := range want {
		if in.APs[i].ID != i || in.APs[i].Load == 99 {
			t.Fatalf("position %d holds ID %d load %v", i, in.APs[i].ID, in.APs[i].Load)
		}
		if !slices.Equal(in.APs[i].Neighbors, w) {
			t.Fatalf("AP %d neighbors %v, want %v", i, in.APs[i].Neighbors, w)
		}
	}
	if !slices.Equal(shared, before) {
		t.Fatalf("Sanitize wrote a neighbor list it had to repair in place: %v, was %v", shared, before)
	}
	if fixes := in.Sanitize(); fixes != 0 {
		t.Fatalf("second Sanitize applied %d fixes", fixes)
	}
}
