// iolap_lint fixture: the verifier-bypass rule must flag the direct
// ExprProgram::Compile below exactly once. This file's path has no tests/
// bench segment ("testdata" does not count), so the exemptions stay out of
// the way. Fixtures are input to the lint lexer only and are never
// compiled.
namespace fixture {

inline void BypassesVerifier(const std::vector<ExprPtr>& roots) {
  auto program = ExprProgram::Compile(roots, nullptr);  // finding
  (void)program;
}

inline void SanctionedSeam(const std::vector<ExprPtr>& roots) {
  // The sanctioned path: the verifier seam.
  auto program = CompileVerified(roots, nullptr, nullptr);
  (void)program;
}

inline void SuppressedBypass(const std::vector<ExprPtr>& roots) {
  // NOLINTNEXTLINE(verifier-bypass): fixture demonstrates the escape hatch.
  auto program = ExprProgram::Compile(roots, nullptr);
  (void)program;
}

}  // namespace fixture
