package seqspace

import (
	"math/rand"
	"testing"
)

// propertySeeds is how many random op sequences each property test runs.
const propertySeeds = 600

// testISS draws an initial sequence number: on odd seeds within 64 KiB below
// 2^32, so that the run crosses the wrap.
func testISS(seed int, rng *rand.Rand) uint32 {
	if seed%2 == 1 {
		return uint32(1<<32 - 1 - rng.Intn(64<<10))
	}
	return rng.Uint32()
}

func TestSeqArithmetic(t *testing.T) {
	if !LT(0xffffff00, 0x00000010) || LT(0x00000010, 0xffffff00) {
		t.Fatal("wraparound comparison broken")
	}
	if LT(5, 5) || !LEQ(5, 5) || !LEQ(0xffffffff, 0) || LEQ(1, 0) {
		t.Fatal("equality and adjacency cases")
	}
	if Max(10, 3) != 10 || Max(3, 10) != 10 || Max(0xfffffff0, 5) != 5 {
		t.Fatal("Max")
	}
}

// A Ring behaves like a slice under every operation, across growth and
// wrap of the backing array.
func TestRingMatchesSlice(t *testing.T) {
	for seed := 0; seed < propertySeeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		var r Ring[int]
		var model []int
		for op := 0; op < 300; op++ {
			v := rng.Int()
			switch k := rng.Intn(10); {
			case k < 3:
				r.PushBack(v)
				model = append(model, v)
			case k < 5:
				i := rng.Intn(len(model) + 1)
				r.Insert(i, v)
				model = append(model[:i], append([]int{v}, model[i:]...)...)
			case k < 7 && len(model) > 0:
				if got := r.PopFront(); got != model[0] {
					t.Fatalf("seed %d: PopFront = %d, want %d", seed, got, model[0])
				}
				model = model[1:]
			case k < 8 && len(model) > 0:
				if got := r.PopBack(); got != model[len(model)-1] {
					t.Fatalf("seed %d: PopBack = %d, want %d", seed, got, model[len(model)-1])
				}
				model = model[:len(model)-1]
			case k < 9 && len(model) > 0:
				i := rng.Intn(len(model))
				if got := r.Remove(i); got != model[i] {
					t.Fatalf("seed %d: Remove(%d) = %d, want %d", seed, i, got, model[i])
				}
				model = append(model[:i], model[i+1:]...)
			case op%97 == 0:
				r.Reset()
				model = model[:0]
			}
			if r.Len() != len(model) {
				t.Fatalf("seed %d op %d: Len = %d, want %d", seed, op, r.Len(), len(model))
			}
			for i, want := range model {
				if got := *r.At(i); got != want {
					t.Fatalf("seed %d op %d: At(%d) = %d, want %d", seed, op, i, got, want)
				}
			}
		}
		r.Drop()
		if r.Len() != 0 || r.buf != nil {
			t.Fatalf("seed %d: Drop left %d elements, cap %d", seed, r.Len(), len(r.buf))
		}
	}
}

// Popped and reset slots are zeroed: a ring of pointers pins nothing it no
// longer holds.
func TestRingReleasesPointers(t *testing.T) {
	var r Ring[*int]
	for i := 0; i < 20; i++ {
		r.PushBack(new(int))
	}
	r.PopFront()
	r.PopBack()
	r.Remove(5)
	r.Remove(12)
	held := 0
	for _, p := range r.buf {
		if p != nil {
			held++
		}
	}
	if held != r.Len() {
		t.Fatalf("%d slots hold a pointer, ring holds %d elements", held, r.Len())
	}
	r.Reset()
	for i, p := range r.buf {
		if p != nil {
			t.Fatalf("slot %d still set after Reset", i)
		}
	}
}
