package server

import (
	"context"
	"fmt"
	"net"
	"testing"

	"autocheck/internal/store"
)

// BenchmarkRemoteObject is the go test rung of the ckpt-service workload:
// one store.Remote client puts and gets a 256 KiB object of 8 × 32 KiB
// sections through a service server.New builds over the memory store, on
// a loopback listener. The client, the HTTP hop and the server run in
// this process, so B/op counts the allocations of both ends.
func BenchmarkRemoteObject(b *testing.B) {
	s, err := New(Config{Store: store.Config{Kind: store.KindMemory}})
	if err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()
	defer func() {
		if err := s.Shutdown(context.Background()); err != nil {
			b.Error(err)
		}
		if err := <-done; err != nil {
			b.Error(err)
		}
	}()
	c, err := store.NewRemote(l.Addr().String(), "bench")
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	sections := make([]store.Section, 8)
	for i := range sections {
		data := make([]byte, 32<<10)
		for j := range data {
			data[j] = byte(i*31 + j*7)
		}
		sections[i] = store.Section{Name: fmt.Sprintf("s%d", i), Data: data}
	}
	if err := c.Put("obj", sections); err != nil {
		b.Fatal(err)
	}
	for _, op := range []struct {
		name string
		do   func() error
	}{
		{"put", func() error { return c.Put("obj", sections) }},
		{"get", func() error {
			_, err := c.Get("obj")
			return err
		}},
	} {
		b.Run(op.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := op.do(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N), "µs/op")
		})
	}
}
