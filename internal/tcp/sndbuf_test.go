package tcp

import (
	"encoding/binary"
	"testing"
	"time"

	"virtualwire/internal/ether"
	"virtualwire/internal/packet"
	"virtualwire/internal/stack"
)

// streamByte is the byte at stream offset i of the send-buffer tests: it
// differs between neighbouring segments, so a retransmission cut from
// the wrong buffer offset delivers detectably wrong bytes.
func streamByte(i int) byte { return byte(i*7 + i>>9) }

// checkSendBuffer asserts the send-buffer invariants after one event:
// the buffer starts at or before the oldest unacknowledged segment, every
// retransmission entry lies inside it, and the unsent bytes it reports
// (BufferedBytes and the stack's send_buffered_bytes gauge) equal what
// the application queued minus what went out.
func checkSendBuffer(t *testing.T, c *Conn, queued int) {
	t.Helper()
	dataSent := int(c.sndNxt - (c.iss + 1))
	if c.finSent {
		dataSent--
	}
	if c.state == StateSynSent {
		dataSent = 0
	}
	if got, want := c.BufferedBytes(), queued-dataSent; got != want {
		t.Fatalf("BufferedBytes = %d, want %d unsent (queued %d, sent %d)", got, want, queued, dataSent)
	}
	if _, live := c.stack.conns[c.key]; live {
		// c is the only connection on its stack.
		if got, _ := c.stack.Snapshot().Get("send_buffered_bytes"); int(got) != queued-dataSent {
			t.Fatalf("send_buffered_bytes gauge = %v, want %d unsent", got, queued-dataSent)
		}
	}
	for _, s := range c.rtxQ {
		off := int(s.seq - c.sndBase)
		if off < 0 || off+s.n > len(c.sndBuf) {
			t.Fatalf("rtx segment seq %#x+%d outside buffer [%#x, +%d)", s.seq, s.n, c.sndBase, len(c.sndBuf))
		}
	}
}

// TestSendBufferCompaction streams paced writes through a lossy pooled
// path. Lost segments stay unacknowledged while later writes force the
// buffer to compact its acknowledged prefix, so retransmissions are cut
// from a compacted buffer; the receiver must still see the exact stream.
// The second case starts the sequence space 5000 bytes before 2^32.
func TestSendBufferCompaction(t *testing.T) {
	for _, tc := range []struct {
		name string
		isn  uint32 // the stack's ISN generator before Connect
	}{
		{"iss-low", 0},
		{"iss-wraps", 0xFFFFFFFF - 64000 - 5000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const (
				chunk  = 3000
				chunks = 120
				total  = chunk * chunks
			)
			// Drop the first transmission of every 9th data segment
			// (by sequence number): cumulative ACKs then acknowledge
			// only the prefix before each hole.
			dropped := map[uint32]bool{}
			segs := 0
			lossy := &dropLayer{dropUp: func(fr *ether.Frame) bool {
				if tcpFlagsOf(fr)&packet.TCPPsh == 0 {
					return false
				}
				seq := binary.BigEndian.Uint32(fr.Data[packet.OffIPHeader+packet.IPv4HeaderLen+4:])
				if dropped[seq] {
					return false
				}
				segs++
				if segs%9 == 0 {
					dropped[seq] = true
					return true
				}
				return false
			}}
			p := newPooledPair(t, 61, ether.NewFramePool(), nil, []stack.Layer{lossy})
			lst, _ := p.t2.Listen(0x4000)
			var rcvd []byte
			lst.OnAccept = func(c *Conn) {
				c.OnData = func(d []byte) { rcvd = append(rcvd, d...) }
			}
			p.t1.isn = tc.isn
			cli, err := p.t1.Connect(0x6000, p.h2.IP, 0x4000)
			if err != nil {
				t.Fatalf("connect: %v", err)
			}
			queued := 0
			var write func()
			write = func() {
				if queued == total {
					cli.Close()
					return
				}
				buf := make([]byte, chunk)
				for i := range buf {
					buf[i] = streamByte(queued + i)
				}
				cli.Send(buf)
				queued += chunk
				p.sched.After(time.Millisecond, "write", write)
			}
			cli.OnConnected = write

			firstBase := cli.sndBase
			var rtxAtCompaction uint64
			compacted := false
			for p.sched.Now() < 60*time.Second && p.sched.Step() {
				checkSendBuffer(t, cli, queued)
				if !compacted && cli.sndBase != firstBase {
					compacted = true
					rtxAtCompaction = cli.Stats.Retransmissions
				}
			}
			if len(rcvd) != total {
				t.Fatalf("received %d bytes, want %d", len(rcvd), total)
			}
			for i, b := range rcvd {
				if b != streamByte(i) {
					t.Fatalf("stream byte %d = %#x, want %#x", i, b, streamByte(i))
				}
			}
			if !compacted {
				t.Fatal("the send buffer never compacted")
			}
			if cli.Stats.Retransmissions <= rtxAtCompaction {
				t.Errorf("no retransmission after the first compaction (%d in total)", cli.Stats.Retransmissions)
			}
			if wrapped := cli.sndNxt < cli.iss; wrapped != (tc.isn != 0) {
				t.Errorf("iss %#x, sndNxt %#x: wrapped past 2^32 = %v", cli.iss, cli.sndNxt, wrapped)
			}
			t.Logf("retransmissions %d (%d before the first compaction), sndBase %#x, cap %d",
				cli.Stats.Retransmissions, rtxAtCompaction, cli.sndBase, cap(cli.sndBuf))
			if cap(cli.sndBuf) > 4*total {
				t.Errorf("send buffer capacity %d for a %d-byte stream", cap(cli.sndBuf), total)
			}
		})
	}
}
