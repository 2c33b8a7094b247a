package service_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"virtualwire/campaign"
	"virtualwire/campaign/service"
)

// serveRecords answers every records request with body.
func serveRecords(t *testing.T, body string) *service.Client {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write([]byte(body))
	}))
	t.Cleanup(ts.Close)
	return service.NewClient(ts.URL)
}

// A complete record line that does not decode is an error naming its
// line; the lines before it are still delivered, and the sink still
// receives the stream verbatim up to the bad line.
func TestStreamRecordsCorruptLine(t *testing.T) {
	body := `{"index":0,"label":"a","seed_index":0,"seed":1,"attempts":1,"outcome":"pass"}` + "\n" +
		`{"index":1,"label":"b","seed_index":1,"se` + "\n" +
		`{"index":2,"label":"c","seed_index":2,"seed":3,"attempts":1,"outcome":"pass"}` + "\n"
	c := serveRecords(t, body)
	var got []int
	var sink bytes.Buffer
	err := c.StreamRecords(context.Background(), "job", &sink, func(r campaign.RunRecord) { got = append(got, r.Index) })
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("StreamRecords error = %v, want one naming line 2", err)
	}
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("records delivered before the bad line = %v, want [0]", got)
	}
	if lines := strings.Count(sink.String(), "\n"); lines != 2 {
		t.Errorf("sink holds %d lines, want 2 (through the bad one)", lines)
	}
}

// A torn final line (no newline: the stream ended mid-record) is passed
// to the sink but neither decoded nor reported as an error.
func TestStreamRecordsTornFinalLine(t *testing.T) {
	body := `{"index":0,"label":"a","seed_index":0,"seed":1,"attempts":1,"outcome":"pass"}` + "\n" +
		`{"index":1,"label":"b","seed_index":1,"se`
	c := serveRecords(t, body)
	var got []int
	var sink bytes.Buffer
	if err := c.StreamRecords(context.Background(), "job", &sink, func(r campaign.RunRecord) { got = append(got, r.Index) }); err != nil {
		t.Fatalf("StreamRecords: %v", err)
	}
	if len(got) != 1 || sink.String() != body {
		t.Errorf("records %v, sink %q; want [0] and the body verbatim", got, sink.String())
	}
}

// Lines longer than the client's read buffer are reassembled whole.
func TestStreamRecordsLongLine(t *testing.T) {
	long := strings.Repeat("x", 200<<10)
	body := `{"index":0,"label":"` + long + `","seed_index":0,"seed":1,"attempts":1,"outcome":"pass"}` + "\n" +
		`{"index":1,"label":"b","seed_index":1,"seed":2,"attempts":1,"outcome":"pass"}` + "\n"
	c := serveRecords(t, body)
	var labels []string
	var sink bytes.Buffer
	if err := c.StreamRecords(context.Background(), "job", &sink, func(r campaign.RunRecord) { labels = append(labels, r.Label) }); err != nil {
		t.Fatalf("StreamRecords: %v", err)
	}
	if len(labels) != 2 || labels[0] != long || labels[1] != "b" || sink.String() != body {
		t.Errorf("long line not reassembled: %d records, sink %d/%d bytes", len(labels), sink.Len(), len(body))
	}
}
