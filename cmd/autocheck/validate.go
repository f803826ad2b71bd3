package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"autocheck/internal/checkpoint"
	"autocheck/internal/harness"
	"autocheck/internal/store"
	"autocheck/internal/validate"
)

func cmdValidate(fs *flag.FlagSet) func() error {
	sf := addStorageFlags(fs, "store", "addr", "addrs", "write-quorum", "read-quorum", "hedge-after",
		"cache-mb", "async", "incremental", "keyframe")
	benchName := fs.String("benchmark", "", "validate only this port (default: all 14)")
	level := fs.String("level", "L1", "checkpoint reliability level 1-4 or L1-L4 (L2 adds a partner copy, L3 XOR parity, L4 fsync)")
	return func() error {
		cfg, err := sf.config()
		if err != nil {
			return err
		}
		switch remote, replicated := cfg.Kind == store.KindRemote, cfg.Kind == store.KindReplicated; {
		case remote && cfg.Addr == "":
			return fmt.Errorf("validate -store remote needs -addr (start one with `autocheck serve`)")
		case !remote && cfg.Addr != "":
			return fmt.Errorf("-addr only applies to -store remote")
		case replicated && len(cfg.Addrs) == 0:
			return fmt.Errorf("validate -store replicated needs -addrs (start a cluster with `autocheck serve -cluster 3`)")
		case !replicated && len(cfg.Addrs) > 0:
			return fmt.Errorf("-addrs only applies to -store replicated")
		}
		lvl, err := checkpoint.ParseLevel(*level)
		if err != nil {
			return err
		}
		banner := fmt.Sprintf("storage: backend=%s level=%s async=%v incremental=%v",
			cfg.Kind, lvl, cfg.Async, cfg.Incremental)
		if cfg.Kind == store.KindRemote {
			banner += fmt.Sprintf(" addr=%s", cfg.Addr)
		}
		if cfg.Kind == store.KindReplicated {
			w, r, err := quorums(cfg)
			if err != nil {
				return err
			}
			banner += fmt.Sprintf(" replicas=%d write-quorum=%d read-quorum=%d addrs=%s",
				len(cfg.Addrs), w, r, strings.Join(cfg.Addrs, ","))
		}
		if cfg.CacheMB > 0 {
			banner += fmt.Sprintf(" cache=%dMB", cfg.CacheMB)
		}
		fmt.Println(banner)
		dir, err := os.MkdirTemp("", "autocheck-validate-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		var names []string
		if *benchName != "" {
			names = []string{*benchName}
		}
		return table(func() ([]harness.ValidationRow, error) {
			return harness.RunValidation(dir, validate.Options{Level: lvl, Store: cfg}, names)
		}, harness.FormatValidation)()
	}
}

// quorums reports the write and read quorums the replicated tier cfg
// describes will use — the majority default lives in store.NewReplicated
// alone — and fails with its message when one is out of range. No replica
// is contacted.
func quorums(cfg store.Config) (w, r int, err error) {
	b, err := store.Open(store.Config{Kind: store.KindReplicated, Addrs: cfg.Addrs,
		WriteQuorum: cfg.WriteQuorum, ReadQuorum: cfg.ReadQuorum})
	if err != nil {
		return 0, 0, err
	}
	defer b.Close()
	w, r = b.(*store.Replicated).Quorums()
	return w, r, nil
}
