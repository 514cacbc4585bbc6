//===- verify/EGraphInvariants.cpp ----------------------------------------===//

#include "verify/EGraphInvariants.h"

#include "support/StringExtras.h"

#include <map>
#include <unordered_set>

using namespace denali;
using namespace denali::verify;
using egraph::ClassId;
using egraph::ENodeId;

std::string InvariantReport::toString() const {
  if (Ok)
    return "e-graph invariants hold";
  std::string Out =
      strFormat("%zu e-graph invariant violation(s):", Violations.size());
  for (const std::string &V : Violations)
    Out += "\n  " + V;
  return Out;
}

InvariantReport
denali::verify::checkEGraphInvariants(const egraph::EGraph &G) {
  InvariantReport R;
  auto Violate = [&](std::string Msg) {
    R.Violations.push_back(std::move(Msg));
  };

  std::vector<ClassId> Classes = G.canonicalClasses();
  std::unordered_set<ClassId> Canonical(Classes.begin(), Classes.end());

  // Canonicality + membership, and a live-node census as we go.
  size_t LiveSeen = 0;
  std::unordered_set<ENodeId> Seen;
  for (ClassId C : Classes) {
    if (G.find(C) != C)
      Violate(strFormat("canonicalClasses() returned class %u but its "
                        "representative is %u",
                        C, G.find(C)));
    std::vector<ENodeId> Members = G.classNodes(C);
    if (Members.empty())
      Violate(strFormat("canonical class %u has no live nodes", C));
    for (ENodeId N : Members) {
      ++LiveSeen;
      if (!Seen.insert(N).second)
        Violate(strFormat("node %u listed in more than one class", N));
      if (G.classOf(N) != C)
        Violate(strFormat("node %u listed in class %u but classOf says %u",
                          N, C, G.classOf(N)));
    }
  }
  if (LiveSeen != G.numNodes())
    Violate(strFormat("numNodes() says %zu live nodes but the classes "
                      "hold %zu",
                      G.numNodes(), LiveSeen));

  // Congruence: same operator + equivalent children => same class. The key
  // canonicalizes children through find() because stored child ids may be
  // stale between rebuilds.
  std::map<std::pair<uint64_t, std::vector<ClassId>>,
           std::pair<ENodeId, ClassId>>
      ByKey;
  for (ClassId C : Classes) {
    for (ENodeId N : G.classNodes(C)) {
      const egraph::ENode &Node = G.node(N);
      std::vector<ClassId> Kids;
      Kids.reserve(Node.Children.size());
      for (ClassId K : Node.Children)
        Kids.push_back(G.find(K));
      uint64_t OpKey =
          (static_cast<uint64_t>(Node.Op) << 1) |
          (G.context().Ops.isConst(Node.Op) ? 1 : 0);
      if (G.context().Ops.isConst(Node.Op))
        OpKey ^= Node.ConstVal << 8;
      auto Key = std::make_pair(OpKey, std::move(Kids));
      auto [It, Fresh] = ByKey.emplace(Key, std::make_pair(N, C));
      if (!Fresh && It->second.second != C)
        Violate(strFormat("congruent nodes %u (class %u) and %u (class %u) "
                          "not merged: %s vs %s",
                          It->second.first, It->second.second, N, C,
                          G.nodeToString(It->second.first).c_str(),
                          G.nodeToString(N).c_str()));
    }
  }

  // Hashcons: exact once the graph is rebuilt (repair() re-keys every node
  // whose children moved).
  if (!G.rebuildPending())
    for (ClassId C : Classes)
      for (ENodeId N : G.classNodes(C)) {
        const egraph::ENode &Node = G.node(N);
        std::optional<ENodeId> Found =
            G.lookupNode(Node.Op, Node.Children, Node.ConstVal);
        if (Found != N)
          Violate(strFormat("hashcons lookup of live node %u (%s) found %s",
                            N, G.nodeToString(N).c_str(),
                            Found ? strFormat("node %u", *Found).c_str()
                                  : "nothing"));
      }

  // Constant analysis: literal nodes agree with their class's folded
  // value; distinct constants are recognized as uncombinable.
  std::vector<std::pair<ClassId, uint64_t>> ConstClasses;
  for (ClassId C : Classes) {
    std::optional<uint64_t> Folded = G.classConstant(C);
    if (Folded)
      ConstClasses.emplace_back(C, *Folded);
    for (ENodeId N : G.classNodes(C)) {
      const egraph::ENode &Node = G.node(N);
      if (!G.context().Ops.isConst(Node.Op))
        continue;
      if (!Folded)
        Violate(strFormat("class %u holds literal %llu but reports no "
                          "constant",
                          C, (unsigned long long)Node.ConstVal));
      else if (*Folded != Node.ConstVal)
        Violate(strFormat("class %u folded to %llu but holds literal %llu",
                          C, (unsigned long long)*Folded,
                          (unsigned long long)Node.ConstVal));
    }
  }
  for (size_t I = 0; I < ConstClasses.size(); ++I)
    for (size_t J = I + 1; J < ConstClasses.size(); ++J) {
      auto [CA, VA] = ConstClasses[I];
      auto [CB, VB] = ConstClasses[J];
      if (VA == VB)
        Violate(strFormat("classes %u and %u both fold to %llu but were "
                          "not merged",
                          CA, CB, (unsigned long long)VA));
      else if (!G.areDistinct(CA, CB))
        Violate(strFormat("classes %u (=%llu) and %u (=%llu) hold "
                          "different constants but are not distinct",
                          CA, (unsigned long long)VA, CB,
                          (unsigned long long)VB));
    }

  R.Ok = R.Violations.empty();
  return R;
}
