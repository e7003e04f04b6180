package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"twoecss/internal/obs"
	"twoecss/internal/router"
	"twoecss/internal/service"
	"twoecss/internal/store"
)

// The daemons' defaults (cmd/ecssd, cmd/ecssrouter flags).
const (
	daemonQueue      = 256
	daemonCache      = 512
	daemonNetWorkers = 1
	daemonStoreBytes = 256 << 20
	routerReplicas   = 2
)

// stopBudget bounds each daemon's drain and listener shutdown.
const stopBudget = 10 * time.Second

// server is one loopback listener serving a handler. Create with serve,
// stop with close; close returns once the serving goroutine has exited.
type server struct {
	srv    *http.Server
	url    string
	addr   string
	served chan struct{}
}

func serve(addr string, h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	s := &server{
		srv:    &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute},
		addr:   ln.Addr().String(),
		served: make(chan struct{}),
	}
	s.url = "http://" + s.addr
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(ln) // always ErrServerClosed or a listener error; close reports Shutdown's
	}()
	return s, nil
}

func (s *server) close(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	if err != nil {
		err = errors.Join(err, s.srv.Close())
	}
	<-s.served
	return err
}

// shard is one in-process ecssd: a Service, optionally store-backed, and
// its listener.
type shard struct {
	svc *service.Service
	srv *server
	dir string
}

// startShard opens the store in dir ("" for none), starts the service with
// the ecssd defaults and serves it on addr. wrap, when non-nil, wraps the
// service handler.
func startShard(addr, dir string, wrap func(http.Handler) http.Handler) (*shard, error) {
	o := obs.New()
	var st *store.Store
	if dir != "" {
		var err error
		st, err = store.OpenWith(dir, store.Options{MaxBytes: daemonStoreBytes, Bus: o.Bus})
		if err != nil {
			return nil, fmt.Errorf("open store %s: %w", dir, err)
		}
	}
	svc := service.New(service.Config{
		QueueDepth:   daemonQueue,
		CacheEntries: daemonCache,
		NetWorkers:   daemonNetWorkers,
		Store:        st,
		Obs:          o,
	})
	h := svc.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	srv, err := serve(addr, h)
	if err != nil {
		ctx, cancel := context.WithTimeout(context.Background(), stopBudget)
		defer cancel()
		return nil, errors.Join(err, svc.Drain(ctx))
	}
	return &shard{svc: svc, srv: srv, dir: dir}, nil
}

// stop drains the service (flushing and closing its store), then closes the
// listener, as ecssd does on SIGTERM.
func (s *shard) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), stopBudget)
	defer cancel()
	return errors.Join(s.svc.Drain(ctx), s.srv.close(ctx))
}

// front is one in-process ecssrouter and its listener.
type front struct {
	rt  *router.Router
	srv *server
}

func startRouter(shards []*shard, wrap func(http.Handler) http.Handler) (*front, error) {
	urls := make([]string, len(shards))
	for i, s := range shards {
		urls[i] = s.srv.url
	}
	rt, err := router.New(router.Config{Replicas: routerReplicas}, urls)
	if err != nil {
		return nil, err
	}
	h := rt.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	srv, err := serve("127.0.0.1:0", h)
	if err != nil {
		rt.Close()
		return nil, err
	}
	return &front{rt: rt, srv: srv}, nil
}

// stop closes the listener, then the router's prober and firehose
// followers, as ecssrouter does on SIGTERM. Stop the router before its
// shards: its firehose connections keep a shard's listener busy.
func (f *front) stop() error {
	f.rt.MarkDraining()
	ctx, cancel := context.WithTimeout(context.Background(), stopBudget)
	defer cancel()
	err := f.srv.close(ctx)
	f.rt.Close()
	return err
}

// fleet is what one set-up started: the shards, the router in front of
// them (nil when the workload talks to a shard directly) and the set-up's
// own state. close stops all of it, router first; it is safe to call more
// than once.
type fleet struct {
	shards []*shard
	front  *front
	once   sync.Once
	err    error
}

// target is the base URL the workload's clients send to.
func (f *fleet) target() string {
	if f.front != nil {
		return f.front.srv.url
	}
	return f.shards[0].srv.url
}

func (f *fleet) close() error {
	f.once.Do(func() {
		if f.front != nil {
			f.err = f.front.stop()
		}
		for _, s := range f.shards {
			f.err = errors.Join(f.err, s.stop())
		}
	})
	return f.err
}
