package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"glimmers/internal/audit"
	"glimmers/internal/durable"
	"glimmers/internal/gaas"
	"glimmers/internal/glimmer"
	"glimmers/internal/predicate"
	"glimmers/internal/service"
	"glimmers/internal/tee"
	"glimmers/internal/wire"
	"glimmers/internal/xcrypto"
)

// The node under test is assembled the way cmd/glimmerd assembles one with
// its default flags, plus -tls-self-signed and -state-dir: one unit-range
// tenant, a group-commit WAL, and the governed TLS edge. The values below
// mirror glimmerd's flag defaults; glimmerdFlags reports them with every
// result.
const (
	serviceName = "demo.glimmers.example" // -service
	tenantDim   = 256                     // -dim (the benchmark's tenant width)
	roundWindow = 16                      // glimmerd's fixed RoundWindow

	readTimeout        = 30 * time.Second // -read-timeout
	writeTimeout       = 30 * time.Second // -write-timeout
	idleTimeout        = 2 * time.Minute  // -idle-timeout
	maxConns           = 4096             // -max-conns
	maxConnsPerIP      = 64               // -max-conns-per-ip
	maxInflightBatches = 256              // -max-inflight-batches
)

// glimmerdFlags lists the glimmerd flag values the node mirrors.
func glimmerdFlags() map[string]any {
	return map[string]any{
		"service":              serviceName,
		"dim":                  tenantDim,
		"workers":              runtime.GOMAXPROCS(0),
		"shards":               0,
		"max-total-rounds":     service.DefaultMaxTotalRounds,
		"ticket-ttl":           service.DefaultTicketTTL,
		"max-tickets":          service.DefaultMaxTickets,
		"wal-flush-bytes":      durable.DefaultFlushBytes,
		"wal-flush-interval":   durable.DefaultFlushInterval.String(),
		"read-timeout":         readTimeout.String(),
		"write-timeout":        writeTimeout.String(),
		"idle-timeout":         idleTimeout.String(),
		"max-conns":            maxConns,
		"max-conns-per-ip":     maxConnsPerIP,
		"max-inflight-batches": maxInflightBatches,
		"tls-self-signed":      true,
		"state-dir":            "a fresh directory under the work directory",
	}
}

// node is one in-process glimmerd plus the partial-seal identity its
// releases sign with.
type node struct {
	dir       string
	platform  *tee.Platform
	svc       *service.Service // the tenant's service: provisions devices
	registry  *service.Registry
	tenant    *service.Tenant
	store     *durable.Store
	auditFile *os.File
	server    *gaas.Server
	ln        net.Listener
	served    chan error
	seal      service.NodeSeal
	pins      service.NodePins // the merge coordinator's TOFU pins
	tr        *tracer
}

// openNode assembles and starts a node whose WAL lives in dir. A non-nil
// tracer gets pass-through wrappers around the ingest side and the journal.
func openNode(dir string, tr *tracer) (*node, error) {
	n := &node{dir: dir, tr: tr}
	opened := false
	defer func() {
		if !opened {
			n.close()
		}
	}()
	as, err := tee.NewAttestationService()
	if err != nil {
		return nil, fmt.Errorf("attestation service: %w", err)
	}
	if n.platform, err = tee.NewPlatform(as); err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	n.registry = service.NewRegistry(service.DefaultMaxTotalRounds)
	if err := n.addTenant(as); err != nil {
		return nil, err
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("state dir: %w", err)
	}
	if n.store, err = durable.OpenConfig(dir, durable.Config{
		FlushBytes:    durable.DefaultFlushBytes,
		FlushInterval: durable.DefaultFlushInterval,
	}); err != nil {
		return nil, fmt.Errorf("state dir: %w", err)
	}
	if n.auditFile, err = os.OpenFile(filepath.Join(dir, "audit.log"),
		os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644); err != nil {
		return nil, fmt.Errorf("audit log: %w", err)
	}
	n.store.SetAudit(audit.NewLog(n.auditFile, nil))
	if _, err := n.store.Recover(n.registry); err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}

	var ingest gaas.Ingestor = n.registry
	if tr != nil {
		n.registry.SetJournal(&tracedJournal{inner: n.store, tr: tr})
		ingest = &tracedIngest{reg: n.registry, tr: tr}
	}
	tlsConf, err := gaas.SelfSignedServerTLS("127.0.0.1")
	if err != nil {
		return nil, fmt.Errorf("tls: %w", err)
	}
	n.server = gaas.New(gaas.ServerConfig{
		Platform:           n.platform,
		Hosts:              n.registry,
		Ingest:             ingest,
		TLS:                tlsConf,
		ReadTimeout:        readTimeout,
		WriteTimeout:       writeTimeout,
		IdleTimeout:        idleTimeout,
		MaxConns:           maxConns,
		MaxConnsPerIP:      maxConnsPerIP,
		MaxInflightBatches: maxInflightBatches,
	})
	if n.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	n.served = make(chan error, 1)
	go func() { n.served <- n.server.Serve(n.ln) }()

	key, err := xcrypto.NewSigningKey()
	if err != nil {
		return nil, fmt.Errorf("node key: %w", err)
	}
	n.seal = service.NodeSeal{NodeID: 1, ShardCount: 1, Measurement: n.server.Measurement(), Key: key}
	opened = true
	return n, nil
}

// addTenant registers the primary tenant exactly as glimmerd's addTenant
// does for a range-check tenant with the default ticket policy.
func (n *node) addTenant(as *tee.AttestationService) error {
	svc, err := service.New(serviceName, as.Root())
	if err != nil {
		return err
	}
	if err := svc.SetPredicate(predicate.UnitRangeCheck("unit-range", tenantDim)); err != nil {
		return err
	}
	cfg, err := svc.GlimmerConfig(tenantDim, glimmer.ModeNone, glimmer.DefaultPolicy)
	if err != nil {
		return err
	}
	svc.Vet(glimmer.BuildBinary(cfg).Measurement())
	tenant, err := n.registry.AddTenant(service.TenantConfig{
		Name:         serviceName,
		Verify:       svc.ContributionVerifyKey(),
		Dim:          tenantDim,
		TicketPolicy: &service.TicketConfig{TTL: service.DefaultTicketTTL},
		Workers:      runtime.GOMAXPROCS(0),
		Shards:       0,
		EvictAtCap:   true,
		RoundWindow:  roundWindow,
		Glimmer:      cfg,
		Provision: func(dev *glimmer.Device) error {
			payload, err := svc.BasePayload()
			if err != nil {
				return err
			}
			return svc.Provision(dev, payload)
		},
	})
	if err != nil {
		return err
	}
	tenant.Manager().Vet(glimmer.BuildBinary(cfg).Measurement())
	n.svc, n.tenant = svc, tenant
	return nil
}

// deviceConfig is the dealer-mode Glimmer configuration the benchmark's
// devices run.
func (n *node) deviceConfig() (glimmer.Config, error) {
	return n.svc.GlimmerConfig(tenantDim, glimmer.ModeDealer, glimmer.DefaultPolicy)
}

// addr is the edge's listen address.
func (n *node) addr() string { return n.ln.Addr().String() }

// dialConfig is how every benchmark client reaches the edge: sessionless
// (devices carry their own enclaves), over TLS, with bounded waits.
func dialConfig() gaas.DialConfig {
	return gaas.DialConfig{
		NoSession:        true,
		TLS:              gaas.InsecureClientTLS(),
		DialTimeout:      10 * time.Second,
		HandshakeTimeout: 10 * time.Second,
		CallTimeout:      30 * time.Second,
	}
}

// release seals a round, exports this node's signed partial seal (one node,
// one shard), absorbs it into a fresh merge, then closes and forgets the
// round. merged is the clock reading when the merge completed.
func (n *node) release(round uint64) (res wire.MergeResult, merged int64, err error) {
	m := n.tenant.Manager()
	t0 := clock()
	if err := m.Seal(round); err != nil {
		return res, 0, fmt.Errorf("seal round %d: %w", round, err)
	}
	t1 := clock()
	raw, err := m.ExportPartialSeal(round, n.seal)
	if err != nil {
		return res, 0, fmt.Errorf("export round %d: %w", round, err)
	}
	t2 := clock()
	merge := service.NewMerge(service.MergeConfig{
		ServiceName: serviceName,
		Dim:         tenantDim,
		Round:       round,
		AllowTOFU:   true,
		Pins:        &n.pins,
	})
	if err := merge.Absorb(raw); err != nil {
		return res, 0, fmt.Errorf("merge round %d: %w", round, err)
	}
	t3 := clock()
	if !merge.Complete() {
		return res, 0, fmt.Errorf("merge round %d: incomplete after its only partial", round)
	}
	m.Close(round)
	m.Forget(round)
	n.tr.record(kSeal, round, 0, t0, t1)
	n.tr.record(kExport, round, 0, t1, t2)
	n.tr.record(kMerge, round, 0, t2, t3)
	return merge.Result(), t3, nil
}

// rejectedOnServer sums the registry- and manager-level refusals; per-round
// refusals surface in each release's merge result instead.
func (n *node) rejectedOnServer() int64 {
	return int64(n.registry.Rejected() + n.tenant.Manager().Rejected())
}

// close stops the edge, drains it, closes the WAL and removes the state
// directory. It tolerates a partly opened node.
func (n *node) close() error {
	var firstErr error
	if n.ln != nil {
		n.ln.Close()
		if err := <-n.served; err != nil {
			firstErr = err
		}
		n.server.Shutdown()
	}
	if n.store != nil {
		if err := n.store.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if n.auditFile != nil {
		n.auditFile.Close()
	}
	if err := os.RemoveAll(n.dir); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
