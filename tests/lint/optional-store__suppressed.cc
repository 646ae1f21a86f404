// Fixture: a nullable store kept on purpose — suppressed, clean.
// utk-lint: allow(optional-store) adapter for a caller without a store yet
int Probe(const Vec& w, const ColumnStore* cols = nullptr);
