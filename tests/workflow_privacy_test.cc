#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "generators/families.h"
#include "generators/random_workflow.h"
#include "module/module_library.h"
#include "privacy/safe_subset_search.h"
#include "privacy/standalone_privacy.h"
#include "privacy/workflow_privacy.h"
#include "workflow/fig1_workflow.h"

namespace provview {
namespace {

// ---------------------------------------------------------------------
// Theorem 4: per-module standalone-safe hidden sets compose to workflow
// privacy in all-private workflows. Verified against brute-force world
// enumeration on small random two-module chains.
// ---------------------------------------------------------------------
class Theorem4Test : public ::testing::TestWithParam<int> {};

TEST_P(Theorem4Test, CompositionIsWorkflowPrivate) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 5);
  // Small chain: m0: (i0, i1) -> d0 ; m1: (d0, i2) -> d1, with all-boolean
  // attributes so world enumeration stays feasible.
  auto catalog = std::make_shared<AttributeCatalog>();
  AttrId i0 = catalog->Add("i0"), i1 = catalog->Add("i1");
  AttrId d0 = catalog->Add("d0");
  AttrId i2 = catalog->Add("i2");
  AttrId d1 = catalog->Add("d1");
  Workflow w(catalog);
  w.AddModule(MakeRandomFunction("m0", catalog, {i0, i1}, {d0}, &rng));
  w.AddModule(MakeRandomFunction("m1", catalog, {d0, i2}, {d1}, &rng));
  ASSERT_TRUE(w.Validate().ok());

  const int64_t gamma = 2;
  std::vector<Bitset64> per_module;
  for (int i : w.PrivateModuleIndices()) {
    MinCostSafeResult r = MinCostSafeHiddenSet(w.module(i), gamma);
    ASSERT_TRUE(r.found);
    per_module.push_back(r.hidden);
  }
  ComposedSolution composed = ComposeStandaloneSolutions(w, per_module);
  // Sufficient-condition certificate holds...
  PrivacyCertificate cert = CertifyWorkflowPrivacy(w, composed.hidden, gamma);
  EXPECT_TRUE(cert.certified);
  // ...and the ground truth (brute-force worlds) confirms Γ-privacy.
  EXPECT_GE(GroundTruthWorkflowGamma(w, composed.hidden, {}), gamma);
}

INSTANTIATE_TEST_SUITE_P(RandomChains, Theorem4Test, ::testing::Range(0, 10));

// Workflow privacy can exceed the standalone certificate, never the other
// way around (the certificate is a sufficient condition).
TEST(Theorem4Test, GroundTruthAtLeastCertificate) {
  Rng rng(77);
  auto catalog = std::make_shared<AttributeCatalog>();
  AttrId i0 = catalog->Add("i0");
  AttrId d0 = catalog->Add("d0");
  AttrId d1 = catalog->Add("d1");
  Workflow w(catalog);
  w.AddModule(MakeRandomFunction("m0", catalog, {i0}, {d0}, &rng));
  w.AddModule(MakeRandomFunction("m1", catalog, {d0}, {d1}, &rng));
  ASSERT_TRUE(w.Validate().ok());
  // Sweep all hidden subsets of the 3 attributes.
  for (uint64_t mask = 0; mask < 8; ++mask) {
    Bitset64 hidden(3);
    for (int b = 0; b < 3; ++b) {
      if ((mask >> b) & 1u) hidden.Set(b);
    }
    std::vector<int64_t> gammas = PerModuleStandaloneGamma(w, hidden);
    int64_t standalone_min = std::min(gammas[0], gammas[1]);
    int64_t truth = GroundTruthWorkflowGamma(w, hidden, {});
    EXPECT_GE(truth, standalone_min) << "hidden=" << hidden.ToString();
  }
}

// ---------------------------------------------------------------------
// §5.1 / Example 7: with public modules, standalone privacy does NOT
// compose; privatization restores it (Theorem 8).
// ---------------------------------------------------------------------
TEST(Example7Test, InputHidingFailsNextToConstantPublicModule) {
  Rng rng(11);
  Example7Chain chain = MakeExample7Chain(2, &rng);
  const Module& priv = chain.workflow->module(chain.bijection_index);
  // Hide the private module's inputs (the intermediate attributes).
  Bitset64 hidden(chain.catalog->size());
  for (AttrId id : priv.inputs()) hidden.Set(id);
  // Standalone: safe for Γ = 4 (one-one, 2 hidden inputs).
  EXPECT_GE(MaxStandaloneGamma(priv, hidden.Complement()), 4);
  // Workflow with the public constant module visible: broken (Γ = 1).
  EXPECT_EQ(
      GroundTruthWorkflowGamma(*chain.workflow, hidden,
                               {chain.constant_index}),
      1);
  // Privatizing the constant module restores Γ ≥ 4 (Theorem 8).
  EXPECT_GE(GroundTruthWorkflowGamma(*chain.workflow, hidden, {}), 4);
}

TEST(Example7Test, OutputHidingFailsNextToInvertiblePublicModule) {
  Rng rng(13);
  Example7OutputChain chain = MakeExample7OutputChain(2, &rng);
  const Module& priv = chain.workflow->module(chain.bijection_index);
  Bitset64 hidden(chain.catalog->size());
  for (AttrId id : priv.outputs()) hidden.Set(id);
  EXPECT_GE(MaxStandaloneGamma(priv, hidden.Complement()), 4);
  // The public inverse downstream reveals everything.
  EXPECT_EQ(GroundTruthWorkflowGamma(*chain.workflow, hidden,
                                     {chain.invertible_index}),
            1);
  EXPECT_GE(GroundTruthWorkflowGamma(*chain.workflow, hidden, {}), 4);
}

TEST(Theorem8Test, CertificateDemandsPrivatization) {
  Rng rng(19);
  Example7Chain chain = MakeExample7Chain(2, &rng);
  const Module& priv = chain.workflow->module(chain.bijection_index);
  Bitset64 hidden(chain.catalog->size());
  for (AttrId id : priv.inputs()) hidden.Set(id);
  PrivacyCertificate cert =
      CertifyWorkflowPrivacy(*chain.workflow, hidden, 4);
  EXPECT_TRUE(cert.certified);
  // The hidden attributes touch the public constant module; Theorem 8
  // requires privatizing it.
  EXPECT_EQ(cert.required_privatizations,
            (std::vector<int>{chain.constant_index}));
}

TEST(Theorem8Test, ComposeCollectsPrivatizationCosts) {
  Rng rng(23);
  Example7Chain chain = MakeExample7Chain(2, &rng);
  chain.workflow->mutable_module(chain.constant_index)
      ->set_privatization_cost(7.0);
  const Module& priv = chain.workflow->module(chain.bijection_index);
  Bitset64 per_module(chain.catalog->size());
  for (AttrId id : priv.inputs()) per_module.Set(id);
  ComposedSolution composed =
      ComposeStandaloneSolutions(*chain.workflow, {per_module});
  EXPECT_EQ(composed.privatized_modules,
            (std::vector<int>{chain.constant_index}));
  EXPECT_DOUBLE_EQ(composed.privatization_cost, 7.0);
  EXPECT_GT(composed.attr_cost, 0.0);
}

// ---------------------------------------------------------------------
// Proposition 1 at the workflow level: growing the hidden set preserves
// the certificate.
// ---------------------------------------------------------------------
TEST(Proposition1Test, SupersetsStayCertified) {
  Rng rng(41);
  auto catalog = std::make_shared<AttributeCatalog>();
  AttrId i0 = catalog->Add("i0"), i1 = catalog->Add("i1");
  AttrId d0 = catalog->Add("d0"), d1 = catalog->Add("d1");
  Workflow w(catalog);
  w.AddModule(MakeRandomFunction("m0", catalog, {i0, i1}, {d0, d1}, &rng));
  ASSERT_TRUE(w.Validate().ok());
  MinCostSafeResult r = MinCostSafeHiddenSet(w.module(0), 2);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(CertifyWorkflowPrivacy(w, r.hidden, 2).certified);
  Bitset64 bigger = r.hidden;
  for (int a = 0; a < 4; ++a) {
    bigger.Set(a);
    EXPECT_TRUE(CertifyWorkflowPrivacy(w, bigger, 2).certified);
  }
}

TEST(PerModuleGammaTest, PublicModulesReportMax) {
  Rng rng(51);
  Example7Chain chain = MakeExample7Chain(1, &rng);
  std::vector<int64_t> gammas = PerModuleStandaloneGamma(
      *chain.workflow, Bitset64(chain.catalog->size()));
  EXPECT_EQ(gammas[static_cast<size_t>(chain.constant_index)],
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(gammas[static_cast<size_t>(chain.bijection_index)], 1);
}

TEST(WorkflowPrivacyDeathTest, GroundTruthDiesOverBudget) {
  // A bare Γ has no status channel: the empty OUT sets of a refused walk
  // (min INT64_MAX) must never read as "private".
  Fig1Workflow fig = MakeFig1Workflow();
  const Bitset64 hidden = Bitset64::Of(7, {fig.a2, fig.a4});
  EXPECT_DEATH(GroundTruthWorkflowGamma(*fig.workflow, hidden, {},
                                        /*max_candidates=*/1),
               "too large after pruning");
}

}  // namespace
}  // namespace provview
