package vnnserver

import "testing"

// TestRegistryRetention pins pruneLocked: beyond maxRetainedJobs the
// oldest finished jobs go, a running job stays however old it is, and a
// registry whose jobs are all running keeps every one.
func TestRegistryRetention(t *testing.T) {
	const n = 300

	r := newRegistry()
	for i := 1; i <= n; i++ {
		j := r.create("fp")
		if i > 1 {
			j.finish(nil, nil)
		}
	}
	if len(r.jobs) != maxRetainedJobs {
		t.Fatalf("%d jobs retained, want %d", len(r.jobs), maxRetainedJobs)
	}
	if len(r.order) != len(r.jobs) {
		t.Fatalf("order lists %d ids for %d jobs", len(r.order), len(r.jobs))
	}
	// q00000001 is still running; the 255 newest finished jobs are
	// q00000046 to q00000300.
	for _, keep := range []string{"q00000001", "q00000046", "q00000300"} {
		if r.get(keep) == nil {
			t.Fatalf("%s was pruned", keep)
		}
	}
	for _, gone := range []string{"q00000002", "q00000045"} {
		if r.get(gone) != nil {
			t.Fatalf("%s was kept", gone)
		}
	}

	running := newRegistry()
	for i := 1; i <= n; i++ {
		running.create("fp")
	}
	if len(running.jobs) != n {
		t.Fatalf("%d of %d running jobs kept", len(running.jobs), n)
	}
}
