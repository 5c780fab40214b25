#pragma once
// AHFIC_RESTRICT: portable spelling of C99 `restrict` for C++.
//
// Annotates pointers of flat inner loops (the tuner's image-rejection
// sweep) so the compiler can prove the spans don't alias and
// autovectorize the surrounding arithmetic. Expands to nothing on compilers without the
// extension — the loops stay correct, just scalar.

#if defined(__GNUC__) || defined(__clang__)
#define AHFIC_RESTRICT __restrict__
#elif defined(_MSC_VER)
#define AHFIC_RESTRICT __restrict
#else
#define AHFIC_RESTRICT
#endif
