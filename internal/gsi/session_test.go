package gsi

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/testpki"
)

// sessionPair returns the two ends of a multiplexed session; the accepting
// end echoes every stream's first message back.
func sessionPair(t *testing.T) (*Session, *Session) {
	t.Helper()
	cli, srv, err := connectPair(t, testpki.User(t, "gsi-alice"), testpki.Host(t, "myproxy.test"), defaultOpts(t), defaultOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	cli.SetMessageTimeout(2 * time.Second)
	initiator, acceptor := NewClientSession(cli), NewServerSession(srv)
	t.Cleanup(func() { initiator.Close(); acceptor.Close() })
	go func() {
		for {
			st, err := acceptor.Accept()
			if err != nil {
				return
			}
			go func() {
				defer st.Close()
				if msg, err := st.ReadMessage(); err == nil {
					st.WriteMessage(msg)
				}
			}()
		}
	}()
	return initiator, acceptor
}

// Two streams are opened, and the second writes first. Stream ids are taken
// at the first write, so wire order is id order and the acceptor — which
// creates a stream only for the next id up — serves both.
func TestStreamsOpenedOutOfWriteOrder(t *testing.T) {
	initiator, _ := sessionPair(t)
	first, err := initiator.Open()
	if err != nil {
		t.Fatal(err)
	}
	second, err := initiator.Open()
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*Stream{second, first} {
		if err := st.WriteMessage([]byte("ping")); err != nil {
			t.Fatal(err)
		}
	}
	for name, st := range map[string]*Stream{"second": second, "first": first} {
		if msg, err := st.ReadMessage(); err != nil || string(msg) != "ping" {
			t.Errorf("%s-opened stream (id %d): %q, %v", name, st.id, msg, err)
		}
	}
	if first.id != 2 || second.id != 1 {
		t.Errorf("ids: first-opened %d, second-opened %d; want wire order 2, 1", first.id, second.id)
	}
}

// A first frame whose id skips ahead would leave a never-seen id below the
// high-water mark; the acceptor ends the session with an error instead of
// dropping that id's frames in silence later.
func TestAcceptorRefusesStreamIDGap(t *testing.T) {
	initiator, acceptor := sessionPair(t)
	if err := initiator.writeFrame(&Stream{s: initiator, id: 2}, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-acceptor.done:
	case <-time.After(5 * time.Second):
		t.Fatal("acceptor kept the session open")
	}
	if err := acceptor.Err(); err == nil || !strings.Contains(err.Error(), "stream 2") {
		t.Errorf("session error = %v, want the out-of-order id named", err)
	}
}

// An answer the peer writes just before it hangs up is delivered: the read
// loop routed it before it saw the connection end, and the stream must not
// report the session's death in its place.
func TestAnswerSentBeforeHangUpIsDelivered(t *testing.T) {
	cli, srv, err := connectPair(t, testpki.User(t, "gsi-alice"), testpki.Host(t, "myproxy.test"), defaultOpts(t), defaultOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	initiator, acceptor := NewClientSession(cli), NewServerSession(srv)
	defer initiator.Close()
	go func() {
		defer acceptor.Close()
		if st, err := acceptor.Accept(); err == nil {
			if msg, err := st.ReadMessage(); err == nil {
				st.WriteMessage(msg)
			}
		}
	}()
	st, err := initiator.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteMessage([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	<-initiator.Done() // the peer has answered and hung up
	if msg, err := st.ReadMessage(); err != nil || string(msg) != "ping" {
		t.Fatalf("answer sent before the hang-up: %q, %v", msg, err)
	}
	if _, err := st.ReadMessage(); err == nil {
		t.Error("a second read on the ended session succeeded")
	}
}

// A read on a stream opened under a context ends with that context; the
// session and its other streams are untouched.
func TestStreamReadEndsWithItsContext(t *testing.T) {
	initiator, _ := sessionPair(t)
	ctx, cancel := context.WithCancel(context.Background())
	silent, err := initiator.OpenContext(ctx) // never written: the acceptor never sees it
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := silent.ReadMessage(); !errors.Is(err, context.Canceled) {
		t.Fatalf("read under a cancelled context = %v, want context.Canceled", err)
	}
	silent.Close()
	st, err := initiator.Open()
	if err != nil {
		t.Fatalf("Open after an abandoned stream: %v", err)
	}
	if err := st.WriteMessage([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if msg, err := st.ReadMessage(); err != nil || string(msg) != "ping" {
		t.Errorf("stream beside the abandoned one: %q, %v", msg, err)
	}
}
