package service_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"virtualwire/campaign"
	"virtualwire/campaign/service"
)

// testSpec builds a small scriptless campaign: seeds runs over a
// generated two-host testbed. Normalized up front so the in-process
// reference and the service run the exact same spec value.
func testSpec(seeds int) *campaign.Spec {
	s := &campaign.Spec{
		Name:      "svc-test",
		Seed:      42,
		SeedCount: seeds,
		Hosts:     2,
		Horizon:   campaign.Duration(5 * time.Second),
	}
	s.Normalize()
	return s
}

// inProcessBytes runs the spec through campaign.Run directly — the
// byte-identity reference every service test compares against.
func inProcessBytes(t *testing.T, spec *campaign.Spec) (jsonl, summary []byte) {
	t.Helper()
	var sink, sumBuf bytes.Buffer
	sum, err := campaign.Run(context.Background(), *spec, campaign.Options{Workers: 1, Sink: &sink})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if err := sum.WriteJSON(&sumBuf); err != nil {
		t.Fatal(err)
	}
	return sink.Bytes(), sumBuf.Bytes()
}

func readJournal(t *testing.T, dir, id string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "jobs", id, "runs.jsonl"))
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	return b
}

func openManager(t *testing.T, dir string, budget int) *service.Manager {
	t.Helper()
	m, err := service.Open(service.Config{Dir: dir, Budget: budget, Logf: t.Logf})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return m
}

// A submitted job must run to completion with a journal byte-identical
// to an in-process campaign.Run of the same spec, and a summary that
// serializes identically — the service adds scheduling, not semantics.
func TestManagerJournalMatchesInProcess(t *testing.T) {
	spec := testSpec(6)
	wantJSONL, wantSummary := inProcessBytes(t, spec)

	dir := t.TempDir()
	m := openManager(t, dir, 4)
	defer m.Close()

	st, err := m.Submit("acme", spec, 2)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.Tenant != "acme" || st.Runs != spec.Runs() {
		t.Errorf("submit status = %+v", st)
	}
	final, err := m.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != service.StateDone || final.Completed != spec.Runs() {
		t.Fatalf("final status = %+v", final)
	}
	if got := readJournal(t, dir, st.ID); !bytes.Equal(got, wantJSONL) {
		t.Errorf("service journal differs from in-process run (%d vs %d bytes)", len(got), len(wantJSONL))
	}
	sum, _, err := m.Summary(st.ID)
	if err != nil || sum == nil {
		t.Fatalf("Summary: %v (sum=%v)", err, sum)
	}
	var sumBuf bytes.Buffer
	if err := sum.WriteJSON(&sumBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sumBuf.Bytes(), wantSummary) {
		t.Errorf("service summary differs:\n%s\nwant:\n%s", sumBuf.Bytes(), wantSummary)
	}
}

// Canceling a queued job must dequeue it without ever running a run;
// canceling the running blocker lets the manager drain.
func TestCancelQueuedJob(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, dir, 1)
	defer m.Close()

	blocker, err := m.Submit("a", testSpec(100000), 1)
	if err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	queued, err := m.Submit("a", testSpec(1), 1)
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}
	st, err := m.Cancel(queued.ID)
	if err != nil || st.State != service.StateCanceled {
		t.Fatalf("cancel queued: %v, state %s", err, st.State)
	}
	if st.Completed != 0 {
		t.Errorf("canceled queued job completed %d runs", st.Completed)
	}
	if _, err := m.Cancel(blocker.ID); err != nil {
		t.Fatalf("cancel blocker: %v", err)
	}
	final, err := m.Wait(context.Background(), blocker.ID)
	if err != nil || final.State != service.StateCanceled {
		t.Fatalf("blocker final: %v, %+v", err, final)
	}
	// Canceling a terminal job is a no-op, not an error.
	if st, err := m.Cancel(blocker.ID); err != nil || st.State != service.StateCanceled {
		t.Errorf("re-cancel: %v, %+v", err, st)
	}
}

// Closing the manager mid-campaign and reopening over the same journal
// root must resume the interrupted job where its journal ends — without
// re-running completed runs — and finish with the same bytes as one
// uninterrupted run. This is the daemon kill+restart path.
func TestCloseReopenResumesInterruptedJob(t *testing.T) {
	spec := testSpec(60)
	wantJSONL, wantSummary := inProcessBytes(t, spec)

	// The job journals three records and then holds until Close cancels
	// it, so the interruption point does not depend on how fast the runs
	// are.
	const heldRuns = 3
	release := service.HoldJournalAfter(heldRuns)
	defer release()
	dir := t.TempDir()
	m1 := openManager(t, dir, 2)
	defer m1.Close() // a no-op once closed below; it must precede release
	st, err := m1.Submit("acme", spec, 2)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Let the held records reach the journal, then stop the daemon the
	// way a SIGTERM would.
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, err := m1.Get(st.ID)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if cur.Completed >= heldRuns {
			break
		}
		if cur.State != service.StateRunning && cur.State != service.StateQueued {
			t.Fatalf("job left the running state before the hold: %+v", cur)
		}
		if time.Now().After(deadline) {
			t.Fatalf("no progress before deadline: %+v", cur)
		}
		time.Sleep(time.Millisecond)
	}
	m1.Close()
	release()

	partial := readJournal(t, dir, st.ID)
	if !bytes.HasPrefix(wantJSONL, partial) {
		t.Fatal("interrupted journal is not a prefix of the uninterrupted run")
	}
	priorRuns := bytes.Count(partial, []byte("\n"))
	if priorRuns != heldRuns {
		t.Fatalf("interrupted journal holds %d records (%d of %d bytes), want exactly %d",
			priorRuns, len(partial), len(wantJSONL), heldRuns)
	}

	m2 := openManager(t, dir, 2)
	defer m2.Close()
	final, err := m2.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatalf("Wait after reopen: %v", err)
	}
	if final.State != service.StateDone {
		t.Fatalf("resumed job ended %s: %+v", final.State, final)
	}
	if final.ResumedFrom != priorRuns {
		t.Errorf("ResumedFrom = %d, want %d (journaled runs must not re-run)", final.ResumedFrom, priorRuns)
	}
	if got := readJournal(t, dir, st.ID); !bytes.Equal(got, wantJSONL) {
		t.Errorf("resumed journal differs from uninterrupted run (%d vs %d bytes)", len(got), len(wantJSONL))
	}
	sum, _, err := m2.Summary(st.ID)
	if err != nil || sum == nil {
		t.Fatalf("Summary after resume: %v", err)
	}
	var sumBuf bytes.Buffer
	if err := sum.WriteJSON(&sumBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sumBuf.Bytes(), wantSummary) {
		t.Errorf("resumed summary differs:\n%s\nwant:\n%s", sumBuf.Bytes(), wantSummary)
	}
}

// A terminal job must survive a reopen as readable history: status,
// journal and summary served from disk, nothing re-run.
func TestReopenServesTerminalJob(t *testing.T) {
	spec := testSpec(2)
	wantJSONL, _ := inProcessBytes(t, spec)

	dir := t.TempDir()
	m1 := openManager(t, dir, 2)
	st, err := m1.Submit("", spec, 1)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := m1.Wait(context.Background(), st.ID); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	m1.Close()

	m2 := openManager(t, dir, 2)
	defer m2.Close()
	got, err := m2.Get(st.ID)
	if err != nil || got.State != service.StateDone {
		t.Fatalf("reopened status: %v, %+v", err, got)
	}
	if got.Completed != spec.Runs() {
		t.Errorf("Completed = %d, want %d", got.Completed, spec.Runs())
	}
	sum, _, err := m2.Summary(st.ID)
	if err != nil || sum == nil {
		t.Fatalf("Summary from disk: %v (sum=%v)", err, sum)
	}
	if !bytes.Equal(readJournal(t, dir, st.ID), wantJSONL) {
		t.Error("terminal journal changed across reopen")
	}
}

// Round-robin fairness: with tenant a's queue three deep and tenant b
// holding one job, b's job must start after a's first job, not after
// a's whole queue. StartSeq makes the scheduler's start order
// observable without wall-clock races.
func TestFairSchedulingAcrossTenants(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, dir, 1)
	defer m.Close()

	blocker, err := m.Submit("blk", testSpec(100000), 1)
	if err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	submit := func(tenant string) service.JobStatus {
		st, err := m.Submit(tenant, testSpec(1), 1)
		if err != nil {
			t.Fatalf("submit %s: %v", tenant, err)
		}
		if st.State != service.StateQueued {
			t.Fatalf("tenant %s job started with budget exhausted: %+v", tenant, st)
		}
		return st
	}
	a1, a2, a3 := submit("a"), submit("a"), submit("a")
	b1 := submit("b")

	if _, err := m.Cancel(blocker.ID); err != nil {
		t.Fatalf("cancel blocker: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	seq := make(map[string]int)
	for _, st := range []service.JobStatus{a1, a2, a3, b1} {
		final, err := m.Wait(ctx, st.ID)
		if err != nil {
			t.Fatalf("wait %s: %v", st.ID, err)
		}
		if final.State != service.StateDone {
			t.Fatalf("job %s ended %s", st.ID, final.State)
		}
		seq[st.ID] = final.StartSeq
	}
	if !(seq[a1.ID] < seq[b1.ID] && seq[b1.ID] < seq[a2.ID] && seq[a2.ID] < seq[a3.ID]) {
		t.Errorf("start order unfair: a1=%d b1=%d a2=%d a3=%d (want a1 < b1 < a2 < a3)",
			seq[a1.ID], seq[b1.ID], seq[a2.ID], seq[a3.ID])
	}
}

// Two managers over one journal root would corrupt each other's
// journals; the flock makes the second Open fail until the first
// closes.
func TestJournalRootLocked(t *testing.T) {
	dir := t.TempDir()
	m1 := openManager(t, dir, 1)
	if _, err := service.Open(service.Config{Dir: dir, Budget: 1}); err == nil {
		t.Error("second Open on a locked journal root succeeded")
	}
	m1.Close()
	m2, err := service.Open(service.Config{Dir: dir, Budget: 1})
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	m2.Close()
}

// Submit must reject an invalid spec with a field-path error and leave
// no job behind.
func TestSubmitRejectsInvalidSpec(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, dir, 1)
	defer m.Close()

	bad := testSpec(1)
	bad.Configs = []campaign.ConfigOverride{{Medium: "pigeon"}}
	if _, err := m.Submit("", bad, 1); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if jobs := m.List(""); len(jobs) != 0 {
		t.Errorf("rejected submit left %d jobs", len(jobs))
	}
}
