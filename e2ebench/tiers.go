package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"wsopt/internal/blockcache"
	"wsopt/internal/gateway"
	"wsopt/internal/minidb"
	"wsopt/internal/replica"
	"wsopt/internal/service"
	"wsopt/internal/tpch"
	"wsopt/internal/wire"
)

// tiers is one running deployment: backends (each with its own catalog,
// optional cache and replication log) and, optionally, a gateway in
// front of them. Every tier listens on its own loopback TCP port.
type tiers struct {
	cats     []*minidb.Catalog
	srvs     []*service.Server
	caches   []*blockcache.Cache
	gw       *gateway.Gateway
	backends []string // backend base URLs as clients dial them
	entry    string   // base URL the readers use (gateway or backend 0)
	stops    []func()
}

// replicaLogRecords is each replicating backend's mutation-log capacity.
const replicaLogRecords = 256

// serve starts an HTTP server for h on an ephemeral loopback port.
func serve(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 30 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns http.ErrServerClosed once stop runs
	}()
	stop := func() {
		_ = srv.Close() // force-closes open connections; nothing to flush
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// gatewayHost is the stable name the gateway knows backend i by. The
// gateway's consistent-hash ring is keyed by backend URL, so naming
// backends by ephemeral port would re-deal session placement on every
// run; the gateway's dialer maps each name to its listener instead.
func gatewayHost(i int) string { return fmt.Sprintf("backend-%d.e2ebench", i) }

// start builds and starts the deployment the workload describes. With a
// non-nil tracer every handler is wrapped and the gateway's outbound
// client is traced.
func start(w *workload, tr *tracer) (*tiers, error) {
	t := &tiers{}
	ok := false
	defer func() {
		if !ok {
			t.stop()
		}
	}()
	for i := 0; i < w.backends; i++ {
		cat := minidb.NewCatalog()
		if _, err := tpch.GenCustomer(cat, w.sf); err != nil {
			return nil, fmt.Errorf("generate customer: %w", err)
		}
		if w.writerRate > 0 && i == 0 {
			if _, err := cat.CreateTable(sideTable, sideSchema()); err != nil {
				return nil, fmt.Errorf("create side table: %w", err)
			}
		}
		cfg := service.Config{Catalog: cat, Codec: wire.Binary{}}
		if w.replicate {
			// Each record pins a shipped block's payload until evicted,
			// so the log is sized to a few queries' worth of blocks.
			cfg.Replica = replica.NewLog(replicaLogRecords)
		}
		if w.cacheBytes > 0 {
			c, err := blockcache.New(blockcache.Config{MemBytes: w.cacheBytes})
			if err != nil {
				return nil, err
			}
			cfg.Cache = c
			t.caches = append(t.caches, c)
		}
		srv, err := service.New(cfg)
		if err != nil {
			return nil, err
		}
		var h http.Handler = srv.Handler()
		if tr != nil {
			h = tr.traceHandler("service", pidBackend+i, h)
		}
		u, stop, err := serve(h)
		if err != nil {
			return nil, err
		}
		t.stops = append(t.stops, stop)
		t.cats = append(t.cats, cat)
		t.srvs = append(t.srvs, srv)
		t.backends = append(t.backends, u)
	}
	t.entry = t.backends[0]
	if w.gateway {
		if err := t.startGateway(tr); err != nil {
			return nil, err
		}
	}
	ok = true
	return t, nil
}

func (t *tiers) startGateway(tr *tracer) error {
	names := make([]string, len(t.backends))
	addr := make(map[string]string, len(t.backends))
	for i, u := range t.backends {
		names[i] = "http://" + gatewayHost(i)
		addr[gatewayHost(i)+":80"] = strings.TrimPrefix(u, "http://")
	}
	var d net.Dialer
	var rt http.RoundTripper = &http.Transport{
		DialContext: func(ctx context.Context, network, a string) (net.Conn, error) {
			if real, ok := addr[a]; ok {
				a = real
			}
			return d.DialContext(ctx, network, a)
		},
		MaxIdleConnsPerHost: 8,
		DisableCompression:  true,
	}
	if tr != nil {
		rt = &outboundRT{base: rt, t: tr}
	}
	gw, err := gateway.New(gateway.Config{Backends: names, HTTP: &http.Client{Transport: rt, Timeout: 2 * time.Minute}})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	gw.Start(ctx)
	t.stops = append(t.stops, cancel)
	var h http.Handler = gw.Handler()
	if tr != nil {
		h = tr.traceHandler("gateway", pidGateway, h)
	}
	u, stop, err := serve(h)
	if err != nil {
		return err
	}
	t.stops = append(t.stops, stop)
	t.gw = gw
	t.entry = u
	return nil
}

// stop shuts the tiers down, front tier first.
func (t *tiers) stop() {
	for i := len(t.stops) - 1; i >= 0; i-- {
		t.stops[i]()
	}
	t.stops = nil
}

// loopbackTransport is the clients' HTTP transport; it counts its dials
// into dials when that is non-nil.
func loopbackTransport(dials *atomic.Int64) *http.Transport {
	var d net.Dialer
	return &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			if dials != nil {
				dials.Add(1)
			}
			return d.DialContext(ctx, network, addr)
		},
		MaxIdleConnsPerHost: 4,
		DisableCompression:  true,
	}
}
