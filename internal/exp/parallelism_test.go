package exp

import "testing"

// TestEffectiveParallelism locks the concurrent-run bound: an explicit
// Parallelism wins unchanged, and the default is one run per CPU.
func TestEffectiveParallelism(t *testing.T) {
	cases := []struct {
		name                string
		parallelism, numCPU int
		want                int
	}{
		{"default-serial", 0, 8, 8},
		{"default-single-cpu", 0, 1, 1},
		{"explicit-wins", 6, 8, 6},
		{"explicit-oversubscribes-deliberately", 16, 4, 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := effectiveParallelism(tc.parallelism, tc.numCPU); got != tc.want {
				t.Errorf("effectiveParallelism(%d, %d) = %d, want %d",
					tc.parallelism, tc.numCPU, got, tc.want)
			}
		})
	}
}
