// Seeded violation: the snapshot codec includes the compiled-artifact
// headers, so the on-disk format would follow CompiledDtd's layout — the
// store-version rule must fire on both includes. (A mention in a comment,
// like src/sat/compiled_dtd.h here, must not count.)
#include "src/store/snapshot.h"

#include "src/automata/nfa.h"
#include "src/sat/compiled_dtd.h"

namespace fixture {

int EncodeLabelGraph() { return 0; }

}  // namespace fixture
