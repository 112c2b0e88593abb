package main

import (
	"testing"
	"time"
)

func TestClassify(t *testing.T) {
	f := func(name, file string) frame { return frame{name: name, file: file} }
	cases := []struct {
		stack []frame
		want  string
	}{
		{[]frame{f("runtime.mapaccess2_fast64", "map.go"), f("repro/internal/recovery.(*Space).onAck", "recovery.go")}, "recovery"},
		{[]frame{f("repro/internal/transport.(*Conn).pullChunk", "/src/internal/transport/send.go")}, "transport.send"},
		{[]frame{f("repro/internal/transport.sealShortInto", "/src/internal/transport/packet.go")}, "transport.send"},
		{[]frame{f("repro/internal/transport.openShort", "/src/internal/transport/packet.go")}, "transport.recv"},
		{[]frame{f("repro/internal/transport.(*SendStream).onChunkLost", "/src/internal/transport/stream.go")}, "transport.stream"},
		{[]frame{f("repro/internal/transport.(*Conn).handleFrame", "/src/internal/transport/conn.go")}, "transport.recv"},
		{[]frame{f("internal/runtime/syscall.Syscall6", "asm.s"), f("syscall.sendto", "s.go"), f("net.(*UDPConn).WriteTo", "u.go"), f("repro/xlink.(*Endpoint).SendBatch", "live.go")}, "syscall"},
		{[]frame{f("repro/xlink.(*Endpoint).deliverBatch", "live.go")}, "xlink"},
		{[]frame{f("runtime.scanobject", "mgc.go"), f("runtime.gcDrain", "mgc.go"), f("runtime.gcBgMarkWorker", "mgc.go")}, "runtime.gc"},
		{[]frame{f("runtime.futex", "os.go"), f("runtime.schedule", "proc.go")}, "runtime.other"},
		{[]frame{f("bytes.Equal", "b.go"), f("main.(*liveClient).onStreamData", "live.go")}, "bench"},
		{[]frame{f("repro/internal/stats.Sort[go.shape.*repro/internal/x.T]", "s.go")}, "stats"},
	}
	for _, c := range cases {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) (n int) {
	for t0 := time.Now(); time.Since(t0) < d; n++ {
	}
	return n
}

// TestFoldOwnProfile decodes a real CPU profile of this test burning CPU in
// package main and checks the fold charges the time to the harness layer.
func TestFoldOwnProfile(t *testing.T) {
	led, raw, err := profileOf(func() { spin(300 * time.Millisecond) })
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 || led.total == 0 {
		t.Fatalf("empty profile: %d bytes, total %d", len(raw), led.total)
	}
	if s := led.share("bench"); s < 0.5 {
		t.Errorf("bench share %.2f of %v, want most of it", s, led.buckets)
	}
}

// TestSetupTime checks a set-up sample adds every package's init clock time
// from the runtime's init trace to the main-to-ready time.
func TestSetupTime(t *testing.T) {
	stderr := "init internal/bytealg @0.008 ms, 0 ms clock, 0 bytes, 0 allocs\n" +
		"init repro/internal/obs @1.4 ms, 0.002 ms clock, 384 bytes, 28 allocs\n" +
		"init main @2.1 ms, 0.5 ms clock, 400 bytes, 2 allocs\n"
	got, err := setupTime("1000000\n", stderr)
	if want := 1502 * time.Microsecond; err != nil || got != want {
		t.Errorf("setupTime = %v, %v; want %v", got, err, want)
	}
	if _, err := setupTime("1000000\n", "no trace"); err == nil {
		t.Error("setupTime accepted a process without an init trace")
	}
}
