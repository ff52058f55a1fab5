package vnnserver

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestServeJobSubmitFailureReleasesAdmission pins the undo half of the
// gate's admit-then-Submit sequence, which no request can provoke from
// outside (registry.Submit only fails in a race with readiness): when a
// plan's submit hook fails after admission, the token is released, the
// error maps through the route's status func, the run body never starts,
// and — for async plans — the drain waitgroup is balanced.
func TestServeJobSubmitFailureReleasesAdmission(t *testing.T) {
	errSubmit := errors.New("submit refused")
	for _, async := range []bool{false, true} {
		s := New(Config{})
		var failed *job
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/models", strings.NewReader(`{}`))
		s.serveJob(rec, req, &struct{}{}, func() (*jobPlan, error) {
			return &jobPlan{
				route:  "gate",
				async:  async,
				status: func(error) int { return http.StatusConflict },
				submit: func(jb *job) error { failed = jb; return errSubmit },
				run: func(context.Context, *job, *obs.Span, int) (any, error) {
					t.Error("run body started after a failed submit")
					return nil, nil
				},
				count: func(any, error) { t.Error("request counted after a failed submit") },
			}, nil
		})
		if rec.Code != http.StatusConflict || !strings.Contains(rec.Body.String(), errSubmit.Error()) {
			t.Fatalf("async=%v: answered %d %s", async, rec.Code, rec.Body)
		}
		if st := s.sched.Stats(); st.Admitted != 0 {
			t.Fatalf("async=%v: %d admission tokens outstanding", async, st.Admitted)
		}
		if _, err := failed.result(); !failed.finished() || !errors.Is(err, errSubmit) {
			t.Fatalf("async=%v: job not failed with the submit error (%v)", async, err)
		}
		drained := make(chan struct{})
		go func() {
			s.Drain(0) // hangs on wg.Wait if the async Add was not undone
			close(drained)
		}()
		select {
		case <-drained:
		case <-time.After(10 * time.Second):
			t.Fatalf("async=%v: Drain did not return", async)
		}
	}
}
