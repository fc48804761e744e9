package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestClientOpensAtMostTwoConnections drives the load generator's client
// from eight goroutines against a slow handler; the transport must
// queue them onto at most maxConns connections.
func TestClientOpensAtMostTwoConnections(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()
	c := newClient(srv.URL)
	defer c.close()

	var wg sync.WaitGroup
	errs := make(chan error, 8*10)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				var out struct{ OK bool }
				if err := c.call(context.Background(), spanRef{}, "GET", http.MethodGet, "/", nil, &out); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if d := c.dials.Load(); d < 1 || d > maxConns {
		t.Fatalf("opened %d connections, want 1..%d", d, maxConns)
	}
}
