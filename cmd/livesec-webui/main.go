// Command livesec-webui serves the monitoring view of a live LiveSec
// deployment (§IV.D): it runs the scaled FIT building in the simulator,
// keeps background user traffic flowing (web, SSH, BitTorrent, periodic
// attacks) in step with the wall clock, and exposes the WebUI's JSON API
// — topology, live events, per-user application usage, statistics, and
// history replay — plus an embedded HTML dashboard at /.
//
//	GET /           — live dashboard (the Flash WebUI's stdlib stand-in)
//	GET /topology   — logical full-mesh topology snapshot
//	GET /events     — filtered event log (?type=&user=&since=&limit=)
//	GET /replay     — history window (?from_ms=&to_ms=)
//	GET /apps       — which user runs which application
//	GET /stats      — per-event-type counters
//	GET /metrics, /traces, /alerts, /health — the controller's own
//	                  metrics, setup traces, SLO alerts and health
//
// Usage: livesec-webui [-http :8080] [-duration 0]
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"livesec/internal/core"
	"livesec/internal/host"
	"livesec/internal/netpkt"
	"livesec/internal/policy"
	"livesec/internal/seproto"
	"livesec/internal/testbed"
	"livesec/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "livesec-webui:", err)
		os.Exit(1)
	}
}

func run() error {
	httpAddr := flag.String("http", "127.0.0.1:8080", "HTTP listen address")
	duration := flag.Duration("duration", 0, "exit after this long (0 = run forever)")
	flag.Parse()

	pt := policy.NewTable(policy.Allow)
	if err := pt.Add(&policy.Rule{
		Name: "identify+inspect", Priority: 10,
		Match:  policy.Match{Proto: netpkt.ProtoTCP},
		Action: policy.Chain,
		Services: []seproto.ServiceType{
			seproto.ServiceL7, seproto.ServiceIDS,
		},
	}); err != nil {
		return err
	}
	f, err := testbed.BuildFIT(testbed.ScaledFIT(), testbed.Options{
		Monitor:  true,
		Policies: pt,
		Config:   core.Config{HostTTL: 30 * time.Second},
	})
	if err != nil {
		return err
	}
	f.Controller.StartStatsPolling(time.Second)
	if err := f.Run(700 * time.Millisecond); err != nil {
		return err
	}

	// Background activity: every user runs a recognizable application;
	// one user fires an attack every ~5 s so the dashboard has events.
	workload.HTTPServer(f.Gateway, 80, 50_000)
	f.Gateway.HandleTCP(22, func(*netpkt.Packet) {})
	f.Gateway.HandleTCP(6881, func(*netpkt.Packet) {})
	users := append(append([]*host.Host{}, f.WiredUsers...), f.WirelessUsers...)
	for i, u := range users {
		switch i % 3 {
		case 0:
			workload.StartWeb(f.Eng, u, testbed.GatewayIP, uint16(50000+i))
		case 1:
			workload.StartSSH(f.Eng, u, testbed.GatewayIP, uint16(50000+i))
		case 2:
			workload.StartBitTorrent(f.Eng, u, testbed.GatewayIP, uint16(50000+i), 5_000_000)
		}
	}
	if len(users) > 0 {
		attacker := users[0]
		n := 0
		f.Eng.Ticker(5*time.Second, func() {
			names := []string{"sql-injection", "dir-traversal", "ssh-bruteforce"}
			_ = workload.SendAttack(attacker, testbed.GatewayIP, names[n%len(names)], uint16(60000+n))
			n++
		})
	}

	// The simulation advances with the wall clock; HTTP reads take the
	// same lock so snapshots are consistent.
	var mu sync.Mutex
	start := time.Now()
	base := f.Eng.Now()
	go func() {
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for range tick.C {
			mu.Lock()
			_ = f.Eng.Run(base + time.Since(start))
			mu.Unlock()
		}
	}()

	handler := f.Controller.APIHandler(func(fn func()) {
		mu.Lock()
		defer mu.Unlock()
		fn()
	})
	fmt.Printf("livesec-webui: scaled FIT building live on http://%s\n", *httpAddr)
	fmt.Println("  dashboard: /   JSON: /topology /events /replay /apps /stats /traces /alerts /health   text: /metrics")

	srv := &http.Server{Addr: *httpAddr, Handler: handler}
	if *duration > 0 {
		go func() {
			time.Sleep(*duration)
			_ = srv.Close()
		}()
	}
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}
