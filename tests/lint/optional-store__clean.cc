// Fixture: the store is a required reference — no finding. A nullable data
// member (assigned by every constructor) is not a parameter default either.
std::vector<int32_t> Filter(const ColumnStore& cols, const RTree& tree,
                            int k, QueryStats* stats = nullptr);
struct View {
  const ColumnStore* cols = nullptr;
};
// "const ColumnStore* cols = nullptr)" in a comment or string is invisible.
const char* kDoc = "never (const ColumnStore* cols = nullptr)";
