// Fixture: a filter entry point with a nullable store parameter — the shape
// of an AoS/SoA twin selected by `cols == nullptr`.
std::vector<int32_t> Filter(const Dataset& data, const RTree& tree, int k,
                            QueryStats* stats = nullptr,
                            const ColumnStore* cols = nullptr);
