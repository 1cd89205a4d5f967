package events

import (
	"sync"
	"testing"
	"time"
)

func TestAppendAssignsSequence(t *testing.T) {
	l := NewLog(0)
	for i := 1; i <= 5; i++ {
		e := l.Append(Event{Type: TypeVariation, Domain: "d"})
		if e.Seq != uint64(i) {
			t.Fatalf("append %d: seq = %d", i, e.Seq)
		}
	}
	if l.Len() != 5 {
		t.Fatalf("Len = %d, want 5", l.Len())
	}
}

func TestAfterCursorAndLimit(t *testing.T) {
	l := NewLog(0)
	for i := 0; i < 10; i++ {
		l.Append(Event{Type: TypeVariation})
	}
	if got := l.After(0, 0); len(got) != 10 {
		t.Fatalf("After(0): %d events, want 10", len(got))
	}
	got := l.After(7, 0)
	if len(got) != 3 || got[0].Seq != 8 {
		t.Fatalf("After(7): %d events, first seq %d", len(got), got[0].Seq)
	}
	if got := l.After(2, 4); len(got) != 4 || got[0].Seq != 3 || got[3].Seq != 6 {
		t.Fatalf("After(2, limit 4): got %+v", got)
	}
	if got := l.After(10, 0); got != nil {
		t.Fatalf("After(end) = %v, want nil", got)
	}
	if got := l.After(99, 0); got != nil {
		t.Fatalf("After(past end) = %v, want nil", got)
	}
}

func TestSubscribeWakesAndCoalesces(t *testing.T) {
	l := NewLog(0)
	sig, cancel := l.Subscribe()
	defer cancel()

	l.Append(Event{})
	l.Append(Event{}) // coalesces into the already-pending signal
	select {
	case <-sig:
	case <-time.After(time.Second):
		t.Fatal("no wakeup after append")
	}
	// One coalesced signal, but After sees both events — the contract
	// that makes the non-blocking send lossless.
	if got := l.After(0, 0); len(got) != 2 {
		t.Fatalf("After: %d events, want 2", len(got))
	}
}

func TestCloseWakesSubscribersAndKeepsHistory(t *testing.T) {
	l := NewLog(0)
	l.Append(Event{Domain: "a"})
	sig, cancel := l.Subscribe()
	defer cancel()
	drainSig(sig)

	l.Close()
	select {
	case <-l.Done():
	default:
		t.Fatal("Done not closed after Close")
	}
	select {
	case <-sig:
	case <-time.After(time.Second):
		t.Fatal("subscriber not woken by Close")
	}
	// Sealed log still records appends (drain-window writes) and serves
	// history.
	l.Append(Event{Domain: "b"})
	if got := l.After(0, 0); len(got) != 2 || got[1].Domain != "b" {
		t.Fatalf("history after close: %+v", got)
	}
	l.Close() // idempotent
}

func TestConcurrentAppendersAndTail(t *testing.T) {
	l := NewLog(0)
	const writers, perWriter = 8, 200

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				l.Append(Event{Type: TypeVariation})
			}
		}()
	}

	// A tail following the log while writers run: signal, drain, repeat.
	tailDone := make(chan uint64)
	go func() {
		sig, cancel := l.Subscribe()
		defer cancel()
		var cur, seen uint64
		for {
			for _, e := range l.After(cur, 0) {
				if e.Seq != cur+1 {
					t.Errorf("tail: gap at seq %d (cursor %d)", e.Seq, cur)
				}
				cur = e.Seq
				seen++
			}
			if seen == writers*perWriter {
				tailDone <- seen
				return
			}
			select {
			case <-sig:
			case <-l.Done():
			}
		}
	}()

	wg.Wait()
	select {
	case seen := <-tailDone:
		if seen != writers*perWriter {
			t.Fatalf("tail saw %d events, want %d", seen, writers*perWriter)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("tail never caught up")
	}
	if l.Len() != writers*perWriter {
		t.Fatalf("Len = %d, want %d", l.Len(), writers*perWriter)
	}
}

func drainSig(sig <-chan struct{}) {
	select {
	case <-sig:
	default:
	}
}
