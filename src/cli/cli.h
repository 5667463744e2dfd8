// The mpcn command-line driver: every named scenario launchable — and
// every grid distributable across processes — with zero C++.
//
//   mpcn list                                  enumerate scenarios
//   mpcn run <scenario> --in n,t,x ...         expand + run a grid
//   mpcn diff a.json b.json [--json]           compare two reports
//
// cli_main is the whole CLI behind a testable seam: the mpcn binary
// (mpcn_main.cc) only forwards to it, and the test suite drives
// subcommands in-process. Exit codes: 0 success / no regressions,
// 1 infrastructure errors or regressions found, 2 usage errors.
#pragma once

namespace mpcn {

int cli_main(int argc, char** argv);

}  // namespace mpcn
