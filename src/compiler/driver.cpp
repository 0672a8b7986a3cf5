#include "compiler/driver.hpp"

#include "compiler/lexer.hpp"
#include "compiler/parser.hpp"

namespace pochoir::psc {

CodegenResult translate(const std::string& source, IndexMode mode) {
  const TokenStream tokens = lex(source);
  const ParsedSource parsed = parse(tokens);
  CodegenResult result = generate(tokens, parsed, mode);
  result.diagnostics.insert(result.diagnostics.begin(),
                            parsed.diagnostics.begin(),
                            parsed.diagnostics.end());
  return result;
}

}  // namespace pochoir::psc
