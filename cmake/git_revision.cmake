# Writes OUTPUT, a header that defines POCHOIR_GIT_REVISION as the output of
# `git describe --always --dirty --abbrev=12` in SOURCE_DIR ("unknown"
# outside a git checkout).  The header is rewritten only when that text
# changes, so a build at an unchanged revision recompiles nothing.
#
#   cmake -DSOURCE_DIR=<checkout> -DOUTPUT=<header> -P git_revision.cmake
execute_process(
  COMMAND git describe --always --dirty --abbrev=12
  WORKING_DIRECTORY ${SOURCE_DIR}
  OUTPUT_VARIABLE revision
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET)
if(NOT revision)
  set(revision "unknown")
endif()
set(text "#define POCHOIR_GIT_REVISION \"${revision}\"\n")
set(old "")
if(EXISTS ${OUTPUT})
  file(READ ${OUTPUT} old)
endif()
if(NOT old STREQUAL text)
  file(WRITE ${OUTPUT} "${text}")
endif()
