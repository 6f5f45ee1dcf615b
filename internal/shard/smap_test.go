package shard

import (
	"testing"

	"repro/internal/minidb"
)

func TestSlotOfStable(t *testing.T) {
	// Equal values hash to equal slots regardless of construction; the
	// distribution over 64 slots is not pathological for realistic IDs.
	seen := make(map[int]int)
	for i := 0; i < 1000; i++ {
		id := "hle-" + string(rune('a'+i%26)) + string(rune('0'+i%10))
		seen[SlotOf(minidb.S(id))]++
	}
	if len(seen) < NumSlots/2 {
		t.Fatalf("IDs cover only %d/%d slots", len(seen), NumSlots)
	}
}
