package main

import "testing"

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	keys := snapshotKeys(settledEpochs)
	for _, seed := range []int64{1, 2, 42} {
		a := make([]int, 5000)
		for i := range a {
			a[i] = scheduleKey(seed, uint64(i), len(keys))
		}
		// Drawn again in reverse order: the same sequence.
		for i := len(a) - 1; i >= 0; i-- {
			if got := scheduleKey(seed, uint64(i), len(keys)); got != a[i] {
				t.Fatalf("seed %d request %d: %d then %d", seed, i, a[i], got)
			}
		}
	}
}

func TestScheduleDiffersAcrossSeeds(t *testing.T) {
	const n = 1000
	same := 0
	for i := uint64(0); i < n; i++ {
		if scheduleKey(1, i, 96) == scheduleKey(2, i, 96) {
			same++
		}
	}
	// Independent uniform draws over 96 keys agree ~10 times in 1000.
	if same > 40 {
		t.Errorf("seeds 1 and 2 share %d of %d requests", same, n)
	}
}

func TestScheduleCoversKeysUniformly(t *testing.T) {
	for _, epochs := range []int{8, 56} {
		keys := snapshotKeys(epochs)
		if len(keys) != epochs*12 {
			t.Fatalf("%d epochs: %d keys, want %d", epochs, len(keys), epochs*12)
		}
		const perKey = 200
		counts := make([]int, len(keys))
		for i := 0; i < perKey*len(keys); i++ {
			counts[scheduleKey(7, uint64(i), len(keys))]++
		}
		for k, c := range counts {
			if c < perKey/2 || c > perKey*2 {
				t.Fatalf("%d epochs: key %v drawn %d times, expected about %d", epochs, keys[k], c, perKey)
			}
		}
	}
}
