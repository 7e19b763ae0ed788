package faas

// Accessors and hooks only tests use. The reachability census
// (TestNothingUnreferenced) keeps them out of the non-test build.

// Failures counts the activations that surfaced an error.
func (c *Cluster) Failures() int64 { return c.failures }

// Requests counts the activations accepted.
func (c *Cluster) Requests() int64 { return c.requests }
