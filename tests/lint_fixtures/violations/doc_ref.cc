// Fixture: fires doc-ref — comments that cite a markdown file that does
// not exist and a DESIGN.md heading that does not exist.

// See docs/NO_SUCH_FILE.md for the protocol.
int FixtureMissingDoc() { return 1; }

// The cache is causal (DESIGN.md §4.1); the rest is in DESIGN.md §9.9.
int FixtureMissingHeading() { return 2; }
