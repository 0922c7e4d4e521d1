package fleet

import (
	"fmt"
	"strconv"
	"strings"

	"riptide/internal/gossip"
)

// HTTP endpoints for the gossip sync ladder. The snapshot endpoint
// (peer.go) predates these and stays the universal fallback; digest and
// delta are what let a converged fleet idle at O(1) bytes per peer pair.

// DigestPath is the URL path riptided serves its table digest on.
const DigestPath = "/fleet/digest"

// DeltaPath is the URL path riptided serves versioned deltas and bucket
// resyncs on. Query parameters:
//
//	since=<version>   entries committed after <version> (0 or absent: full)
//	instance=<id>     the instance the cursor belongs to; a mismatch means
//	                  the server restarted since, so it serves a full table
//	buckets=a,b,c     digest bucket indices to fetch in full (post-restart
//	                  resync); mutually exclusive with since
const DeltaPath = "/fleet/delta"

// parseBuckets parses a comma-separated bucket index list, rejecting
// out-of-range indices, unparseable input, and oversized lists, and
// deduplicating repeats. Without the cap and dedupe, "0,0,0,..." repeated
// thousands of times would make the server filter (and a malicious digest
// could make a puller request) the same bucket's entries once per mention —
// a response-amplification lever. A valid list never needs more than one
// mention of each of the NumBuckets indices.
func parseBuckets(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	if len(parts) > gossip.NumBuckets {
		return nil, fmt.Errorf("bucket list has %d entries, max %d", len(parts), gossip.NumBuckets)
	}
	var seen [gossip.NumBuckets]bool
	out := make([]int, 0, len(parts))
	for _, part := range parts {
		b, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad bucket %q", part)
		}
		if b < 0 || b >= gossip.NumBuckets {
			return nil, fmt.Errorf("bucket %d out of range [0,%d)", b, gossip.NumBuckets)
		}
		if seen[b] {
			continue
		}
		seen[b] = true
		out = append(out, b)
	}
	return out, nil
}
