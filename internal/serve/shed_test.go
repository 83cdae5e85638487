package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// shedServer boots one server whose flushes are held until release, so the
// first request stays queued and holds the model's queue depth up while a
// second request probes the admission gate.
func shedServer(t *testing.T, shedDepth int, retryAfter int) (srv *Server, ts *httptest.Server, release func()) {
	t.Helper()
	reg := NewRegistry()
	if _, err := reg.Register("m", testNet(t, 44, 8, 4, 2), nil); err != nil {
		t.Fatal(err)
	}
	srv = NewServer(reg, Config{
		MaxBatch: 64, QueueCap: 256,
		ShedDepth: shedDepth, RetryAfterS: retryAfter,
	})
	ts = httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts, holdFlushes(t, srv)
}

// TestServeAdmissionShedsAtWatermark: once a model's queued items exceed
// ShedDepth, further requests are refused with 429 + Retry-After instead of
// joining the queue, and both per-model and global shed counters move.
func TestServeAdmissionShedsAtWatermark(t *testing.T) {
	srv, ts, release := shedServer(t, 1, 5)
	x := make([]float64, 8)

	// First request occupies the queue (its flush is held); launch async
	// since it will not return until the hold is released.
	first := make(chan int, 1)
	go func() {
		resp, _, _ := postClassify(t, ts.Client(), ts.URL, ClassifyRequest{Model: "m", Seed: 1, Input: x})
		first <- resp.StatusCode
	}()
	// Wait until the item is actually queued.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().Models["m"].QueueDepth == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}
	queuedAt := time.Now()

	resp, _, raw := postClassify(t, ts.Client(), ts.URL, ClassifyRequest{Model: "m", Seed: 2, Input: x})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d over the watermark, want 429: %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("Retry-After"); got != "5" {
		t.Fatalf("Retry-After %q, want \"5\"", got)
	}
	// Hold the first flush 300ms, so its recorded queue wait is unmistakable.
	time.Sleep(time.Until(queuedAt.Add(300 * time.Millisecond)))
	release()
	if code := <-first; code != http.StatusOK {
		t.Fatalf("first (admitted) request status %d", code)
	}

	st := srv.Stats()
	m := st.Models["m"]
	if m.Sheds != 1 || st.ShedsTotal != 1 {
		t.Fatalf("shed counters model=%d total=%d, want 1/1", m.Sheds, st.ShedsTotal)
	}
	if m.Requests != 1 || m.Items != 1 {
		t.Fatalf("shed request leaked into serving stats: %+v", m)
	}
	if m.QueueDepth != 0 {
		t.Fatalf("queue depth %d after flush, want 0", m.QueueDepth)
	}
	// The admitted item waited out the held flush; the wait stats must
	// reflect that — and reset on the next scrape (scrape-windowed).
	if m.QueueWaitMaxMS < 100 || m.QueueWaitMeanMS < 100 {
		t.Fatalf("queue-wait stats %+v too small for a 300ms hold", m)
	}
	if again := srv.Stats().Models["m"]; again.QueueWaitMaxMS != 0 || again.QueueWaitMeanMS != 0 {
		t.Fatalf("queue-wait stats %+v did not reset after scrape", again)
	}
}

// TestServeShedDisabledByDefault: without a watermark the same overload
// pattern is absorbed by the bounded queue, not refused.
func TestServeShedDisabledByDefault(t *testing.T) {
	srv, ts, release := shedServer(t, 0, 0)
	x := make([]float64, 8)
	first := make(chan int, 1)
	go func() {
		resp, _, _ := postClassify(t, ts.Client(), ts.URL, ClassifyRequest{Model: "m", Seed: 1, Input: x})
		first <- resp.StatusCode
	}()
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().Models["m"].QueueDepth == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}
	// The second request is admitted into the queue, not refused; it
	// completes once the held flushes are released.
	second := postAsync(t, ts, ClassifyRequest{Model: "m", Seed: 2, Input: x},
		"status %d with shedding disabled, want 200: %s")
	waitQueued(t, srv, "m", 2, second)
	release()
	if msg := <-second; msg != "" {
		t.Fatal(msg)
	}
	if code := <-first; code != http.StatusOK {
		t.Fatalf("first request status %d", code)
	}
	if st := srv.Stats(); st.ShedsTotal != 0 {
		t.Fatalf("sheds_total %d with shedding disabled", st.ShedsTotal)
	}
}

// TestServeShedPerModelIsolation: one model over its watermark must not shed
// another model's traffic — watermarks are per model-queue, not global.
func TestServeShedPerModelIsolation(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Register("hot", testNet(t, 44, 8, 4, 2), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("cold", testNet(t, 45, 8, 4, 2), nil); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg, Config{MaxBatch: 64, ShedDepth: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	release := holdFlushes(t, srv)

	x := make([]float64, 8)
	first := make(chan int, 1)
	go func() {
		resp, _, _ := postClassify(t, ts.Client(), ts.URL, ClassifyRequest{Model: "hot", Seed: 1, Input: x})
		first <- resp.StatusCode
	}()
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().Models["hot"].QueueDepth == 0 {
		if time.Now().After(deadline) {
			t.Fatal("hot request never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}
	// hot is at its watermark: more hot traffic sheds immediately, but cold
	// must still be admitted (its own queue is empty). Probe hot first — a
	// shed returns instantly, while an admitted request blocks until the
	// held flushes are released.
	resp, _, _ := postClassify(t, ts.Client(), ts.URL, ClassifyRequest{Model: "hot", Seed: 3, Input: x})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("hot model status %d over watermark, want 429", resp.StatusCode)
	}
	cold := postAsync(t, ts, ClassifyRequest{Model: "cold", Seed: 2, Input: x},
		"cold model status %d while hot is saturated: %s")
	waitQueued(t, srv, "cold", 1, cold)
	release()
	if msg := <-cold; msg != "" {
		t.Fatal(msg)
	}
	<-first
	st := srv.Stats()
	if st.Models["hot"].Sheds != 1 || st.Models["cold"].Sheds != 0 {
		t.Fatalf("shed isolation broken: hot=%d cold=%d", st.Models["hot"].Sheds, st.Models["cold"].Sheds)
	}
}
