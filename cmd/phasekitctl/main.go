// Command phasekitctl administers a phasekitd cluster through a node's
// -health HTTP endpoint.
//
// Usage:
//
//	phasekitctl -admin 127.0.0.1:9128 status
//	phasekitctl -admin 127.0.0.1:9128 join <node-id> <ingest-addr>
//	phasekitctl -admin 127.0.0.1:9128 leave <node-id>
//	phasekitctl -admin 127.0.0.1:9128 rebalance
//	phasekitctl -admin 127.0.0.1:9128 checkpoint
//
// status prints the node's cluster view: ring epoch, membership, and
// stream/assignment counters. join adds (or re-addresses) a member and
// moves its slice of the stream space to it through the shared
// checkpoint store — normally phasekitd's -peers flag does this for
// you at startup. leave removes a member: a live one saves its streams
// to the shared store first; a dead one's streams are adopted by the
// survivors from its last checkpoints. rebalance
// renumbers the current membership to a fresh epoch, fencing any
// writer still on an older one, without moving streams. checkpoint
// persists every resident stream to the node's store — a durability
// barrier that does not stop the node.
//
// All verbs print the node's JSON response. Exit status is non-zero on
// transport errors or any non-200 reply.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"time"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: phasekitctl -admin host:port <verb> [args]

verbs:
  status                    print the node's cluster view
  join <node-id> <addr>     add a member whose ingest listener is at addr
  leave <node-id>           remove a member (streams move to survivors)
  rebalance                 advance the ring epoch without moving streams
  checkpoint                persist every resident stream to the store
`)
	os.Exit(2)
}

func main() {
	admin := flag.String("admin", "127.0.0.1:9128", "health/admin HTTP address of any cluster member")
	timeout := flag.Duration("timeout", 30*time.Second, "request timeout (covers the stream migrations a join or leave triggers)")
	flag.Usage = usage
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	base := "http://" + *admin
	client := &http.Client{Timeout: *timeout}

	var resp *http.Response
	var err error
	switch verb := args[0]; verb {
	case "status":
		if len(args) != 1 {
			usage()
		}
		resp, err = client.Get(base + "/clusterz")
	case "join":
		if len(args) != 3 {
			usage()
		}
		q := url.Values{"id": {args[1]}, "addr": {args[2]}}
		resp, err = client.Post(base+"/cluster/join?"+q.Encode(), "", nil)
	case "leave":
		if len(args) != 2 {
			usage()
		}
		q := url.Values{"id": {args[1]}}
		resp, err = client.Post(base+"/cluster/leave?"+q.Encode(), "", nil)
	case "rebalance":
		if len(args) != 1 {
			usage()
		}
		resp, err = client.Post(base+"/cluster/rebalance", "", nil)
	case "checkpoint":
		if len(args) != 1 {
			usage()
		}
		resp, err = client.Post(base+"/cluster/checkpoint", "", nil)
	default:
		fmt.Fprintf(os.Stderr, "phasekitctl: unknown verb %q\n", verb)
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "phasekitctl: %v\n", err)
		os.Exit(1)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	os.Stdout.Write(body)
	if len(body) > 0 && body[len(body)-1] != '\n' {
		fmt.Println()
	}
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "phasekitctl: %s %s: %s\n", args[0], *admin, resp.Status)
		os.Exit(1)
	}
}
