package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"sync/atomic"
	"time"
)

// maxConns is the load generator's connection budget: one process, at
// most two HTTP connections to the service.
const maxConns = 2

// pollInterval is the mean gap between status polls while an operation
// waits for a terminal result. Each gap is drawn uniformly from half to
// one and a half times it: with a fixed gap, latencies sit on a lattice
// of poll times and their median jumps a whole gap at a time.
const pollInterval = 5 * time.Millisecond

// client is the load generator's HTTP side. It speaks the rfidd JSON API
// itself, rather than through the service's typed client, so its cost
// is charged to the bench layer in the CPU ledger and not to server.
type client struct {
	base string
	hc   *http.Client
	// dials counts the connections ever opened: at most maxConns means
	// the generator never had more open at once.
	dials atomic.Int64
}

func newClient(base string) *client {
	c := &client{base: base}
	d := &net.Dialer{Timeout: 5 * time.Second}
	c.hc = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c.dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
	}}
	return c
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call performs one request under span sp: in, when non-nil, is sent as
// JSON; a 2xx body is decoded into out (or, for a *[]byte, kept raw).
func (c *client) call(ctx context.Context, sp spanRef, name, method, path string, in, out any) error {
	s := sp.child("server", name)
	defer s.end()
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	switch o := out.(type) {
	case nil:
		return nil
	case *[]byte:
		*o = raw
		return nil
	default:
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("%s %s: %w", method, path, err)
		}
		return nil
	}
}

// poll GETs path until done reports the decoded body terminal: at once,
// then about every pollInterval. Polls are spans named "GET poll".
func (c *client) poll(ctx context.Context, sp spanRef, path string, out any, done func() bool) error {
	for first := true; !done(); first = false {
		if !first {
			t := time.NewTimer(pollInterval/2 + rand.N(pollInterval))
			select {
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			case <-t.C:
			}
		}
		if err := c.call(ctx, sp, "GET poll", http.MethodGet, path, nil, out); err != nil {
			return err
		}
	}
	return nil
}
