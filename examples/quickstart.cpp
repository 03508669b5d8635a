// Quickstart: parse a DTD, compile it once, then decide the satisfiability of
// queries against it, printing the algorithm that ran and (when satisfiable)
// a conforming witness document.
//
//   ./quickstart                  # runs the built-in demo
//   ./quickstart '<query>'        # decide a custom query against the demo DTD
#include <cstdio>
#include <string>

#include "src/sat/satisfiability.h"
#include "src/xml/dtd.h"
#include "src/xpath/parser.h"

using namespace xpathsat;

namespace {

const char* kBibDtd = R"(root bib
bib -> book*
book -> title, (author* + editor)
title -> eps
author -> eps
editor -> eps
attrs book: year
attrs author: name
)";

void Decide(const CompiledDtd& dtd, const std::string& query) {
  Result<std::unique_ptr<PathExpr>> p = ParsePath(query);
  if (!p.ok()) {
    std::printf("  %-42s parse error: %s\n", query.c_str(), p.error().c_str());
    return;
  }
  SatReport r = DecideSatisfiability(*p.value(), dtd);
  const char* verdict = r.sat() ? "SAT" : (r.unsat() ? "UNSAT" : "UNKNOWN");
  std::printf("  %-42s %-7s via %s\n", query.c_str(), verdict,
              r.algorithm.c_str());
  if (r.sat() && r.decision.witness.has_value()) {
    std::printf("    witness: %s\n", r.decision.witness->ToString().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Result<Dtd> dtd = Dtd::Parse(kBibDtd);
  if (!dtd.ok()) {
    std::fprintf(stderr, "DTD error: %s\n", dtd.error().c_str());
    return 1;
  }
  std::printf("DTD:\n%s\n", dtd.value().ToString().c_str());
  std::shared_ptr<const CompiledDtd> compiled =
      CompiledDtd::Compile(dtd.value());

  if (argc > 1) {
    Decide(*compiled, argv[1]);
    return 0;
  }

  std::printf("Satisfiability against the DTD:\n");
  // A mix of fragments; the dispatch picks the right decision procedure.
  Decide(*compiled, "book/title");
  Decide(*compiled, "book/chapter");                      // not in the schema
  Decide(*compiled, ".[book[author && editor]]");         // exclusive siblings
  Decide(*compiled, ".[book[author] && book[editor]]");   // different books
  Decide(*compiled, "book/title/>");                      // sibling axis
  Decide(*compiled, "book[!(author) && !(editor)]");      // negation
  Decide(*compiled, ".[book/@year=\"2005\" && book/@year!=\"2005\"]");
  Decide(*compiled, "book/author/^^[label()=bib]");       // upward + label test
  return 0;
}
