package comm

import "testing"

// registeredTags mirrors the collective tag registry in comm.go. A new
// collective's tag must be added here as well; the test below then keeps
// the registry honest. (The tagconst analyzer checks uniqueness statically
// too — this test is the belt to its suspenders, and also pins the
// reserved-range convention, which the analyzer does not know about.)
var registeredTags = map[string]int{
	"tagBarrier":   tagBarrier,
	"tagBcast":     tagBcast,
	"tagReduce":    tagReduce,
	"tagAllgather": tagAllgather,
	"tagAlltoallv": tagAlltoallv,
	"tagGather":    tagGather,
}

// TestTagRegistry asserts the two registry invariants: every collective
// tag is negative (the reserved range — user code owns tags >= 0), and no
// two tags collide (matching is by (source, tag) only, so a collision
// cross-wires two collectives into each other's message streams).
func TestTagRegistry(t *testing.T) {
	seen := make(map[int]string, len(registeredTags))
	for name, v := range registeredTags {
		if v >= 0 {
			t.Errorf("%s = %d: collective tags must be negative; tags >= 0 belong to user code", name, v)
		}
		if prev, dup := seen[v]; dup {
			t.Errorf("tag collision: %s and %s are both %d", name, prev, v)
		}
		seen[v] = name
	}
	// The iota chain allocates a dense block from -1 downward; a gap means
	// a tag was removed or renumbered out of band.
	for want := -1; want >= -len(registeredTags); want-- {
		if _, ok := seen[want]; !ok {
			t.Errorf("reserved tag %d unallocated: the registry must stay a dense iota block", want)
		}
	}
}
