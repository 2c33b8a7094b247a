package main

import (
	"bytes"
	"testing"
)

// TestGoldenOutput pins vwregress's full text output for a small
// generated suite: two fault kinds at two occurrences, each case a
// campaign variant seeded 1+i.
func TestGoldenOutput(t *testing.T) {
	const want = `generated 4 scenarios for TCP_data node1->node2 RECV

  drop_pkt1_of_TCP_data          PASS  (43400 bytes, 0 rtx, scenario stopped at 4.761043ms, 0 error(s))
  drop_pkt2_of_TCP_data          PASS  (29400 bytes, 1 rtx, scenario stopped at 1.003705515s, 0 error(s))
  dup_pkt1_of_TCP_data           PASS  (43400 bytes, 0 rtx, scenario stopped at 4.760963ms, 0 error(s))
  dup_pkt2_of_TCP_data           PASS  (43400 bytes, 0 rtx, scenario stopped at 4.774401ms, 0 error(s))

4/4 passed
`
	var out bytes.Buffer
	err := run([]string{
		"-prologue", "../../scripts/prologue_tcp.fsl",
		"-type", "TCP_data", "-from", "node1", "-to", "node2",
		"-faults", "drop,dup", "-occurrences", "1,2",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if got := out.String(); got != want {
		t.Errorf("output differs from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
