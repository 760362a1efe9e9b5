#include "workloads/suite.hpp"

#include "support/assert.hpp"

namespace monomap {
namespace {

// Shorthand used throughout: every kernel is written as straight-line IR in
// SSA style; recurrence cycles are closed by building the phi first with a
// placeholder operand and patching in the carried reference once the cycle's
// tail exists. Node-count comments track the running instruction count.

constexpr std::int64_t kAccMask = (1LL << 28) - 1;

/// aes — MiBench security. AddRoundKey + S-box + double xtime (MixColumns
/// GF(2^8) doubling) + rotate feeding the next state: a 14-op recurrence,
/// the longest in the suite. 23 nodes, RecII 14.
LoopKernel make_aes() {
  LoopKernel k("aes");
  const auto i = k.index("i");                                    // 1
  const auto pt = k.load(0, ref(i), "pt");                        // 2
  const auto key = k.load(1, ref(i), "key");                      // 3
  const auto tk = k.binary(Opcode::kXor, ref(pt), ref(key), "tk");  // 4
  const auto st = k.phi(carried(0), "state");                     // 5 (patched)
  const auto x0 = k.binary(Opcode::kXor, ref(st), ref(tk), "x0");   // 6
  const auto sa = k.binary_imm(Opcode::kAnd, ref(x0), 255, "sa");   // 7
  const auto sb = k.load(2, ref(sa), "sbox");                     // 8
  const auto d1a = k.binary_imm(Opcode::kShl, ref(sb), 1, "d1a");   // 9
  const auto d1b = k.binary_imm(Opcode::kAshr, ref(sb), 7, "d1b");  // 10
  const auto d1c = k.binary_imm(Opcode::kAnd, ref(d1b), 0x1B, "d1c");  // 11
  const auto d1 = k.binary(Opcode::kXor, ref(d1a), ref(d1c), "d1");    // 12
  const auto d2a = k.binary_imm(Opcode::kShl, ref(d1), 1, "d2a");      // 13
  const auto d2b = k.binary_imm(Opcode::kAshr, ref(d1), 7, "d2b");     // 14
  const auto d2c = k.binary_imm(Opcode::kAnd, ref(d2b), 0x1B, "d2c");  // 15
  const auto d2 = k.binary(Opcode::kXor, ref(d2a), ref(d2c), "d2");    // 16
  const auto mx = k.binary(Opcode::kXor, ref(d2), ref(sb), "mix");     // 17
  const auto k2 = k.binary(Opcode::kXor, ref(mx), ref(x0), "k2");      // 18
  const auto rl = k.binary_imm(Opcode::kShl, ref(k2), 3, "rl");        // 19
  const auto nst = k.binary_imm(Opcode::kAnd, ref(rl), 255, "nst");    // 20
  k.set_operand(st, 0, carried(nst));
  k.store(3, ref(i), ref(nst), "ct");                             // 21
  const auto hi = k.binary_imm(Opcode::kShr, ref(k2), 4, "hi");   // 22
  k.store(4, ref(i), ref(hi), "ct_hi");                           // 23
  return k;
}

/// backprop — Rodinia. Two weight-update lanes with 5-op clamped momentum
/// recurrences, hidden-error accumulation, bias update. 34 nodes, RecII 5.
LoopKernel make_backprop() {
  LoopKernel k("backprop");
  const auto i = k.index("i");                                     // 1
  const auto x = k.load(0, ref(i), "x");                           // 2
  const auto d = k.load(1, ref(i), "delta");                       // 3
  const auto g = k.binary(Opcode::kMul, ref(x), ref(d), "grad");   // 4
  const auto gs = k.binary_imm(Opcode::kAshr, ref(g), 8, "gs");    // 5
  const auto pm = k.phi(carried(0), "mom");                        // 6
  const auto mm = k.binary_imm(Opcode::kMul, ref(pm), 29, "mm");   // 7
  const auto msh = k.binary_imm(Opcode::kAshr, ref(mm), 5, "msh"); // 8
  const auto ma = k.binary(Opcode::kAdd, ref(msh), ref(gs), "ma"); // 9
  const auto mc = k.binary_imm(Opcode::kMin, ref(ma), 1 << 20, "mc");  // 10
  k.set_operand(pm, 0, carried(mc));
  const auto pw = k.phi(carried(0), "w");                          // 11
  const auto wn = k.binary(Opcode::kAdd, ref(pw), ref(mc), "wn");  // 12
  k.set_operand(pw, 0, carried(wn));
  k.store(2, ref(i), ref(wn), "w_out");                            // 13
  const auto xb = k.load(3, ref(i), "xb");                         // 14
  const auto gb = k.binary(Opcode::kMul, ref(xb), ref(d), "gb");   // 15
  const auto gbs = k.binary_imm(Opcode::kAshr, ref(gb), 8, "gbs"); // 16
  const auto pmb = k.phi(carried(0), "momb");                      // 17
  const auto mmb = k.binary_imm(Opcode::kMul, ref(pmb), 29, "mmb");  // 18
  const auto mshb = k.binary_imm(Opcode::kAshr, ref(mmb), 5, "mshb");  // 19
  const auto mab = k.binary(Opcode::kAdd, ref(mshb), ref(gbs), "mab"); // 20
  const auto mcb = k.binary_imm(Opcode::kMin, ref(mab), 1 << 20, "mcb");  // 21
  k.set_operand(pmb, 0, carried(mcb));
  const auto pwb = k.phi(carried(0), "wb");                        // 22
  const auto wnb = k.binary(Opcode::kAdd, ref(pwb), ref(mcb), "wnb");  // 23
  k.set_operand(pwb, 0, carried(wnb));
  k.store(4, ref(i), ref(wnb), "wb_out");                          // 24
  const auto e1 = k.binary(Opcode::kMul, ref(wn), ref(d), "e1");   // 25
  const auto e2 = k.binary(Opcode::kMul, ref(wnb), ref(d), "e2");  // 26
  const auto es = k.binary(Opcode::kAdd, ref(e1), ref(e2), "es");  // 27
  const auto pe = k.phi(carried(0), "err");                        // 28
  const auto en = k.binary(Opcode::kAdd, ref(pe), ref(es), "en");  // 29
  k.set_operand(pe, 0, carried(en));
  const auto sc = k.binary_imm(Opcode::kAnd, ref(en), 0xFFFF, "sc");  // 30
  k.store(5, ref(i), ref(sc), "err_out");                          // 31
  const auto bias = k.load(6, ref(i), "bias");                     // 32
  const auto bn = k.binary(Opcode::kAdd, ref(bias), ref(gs), "bn");  // 33
  k.store(7, ref(i), ref(bn), "bias_out");                         // 34
  return k;
}

/// basicmath — MiBench. Newton cube-root step x' = clamp((2x + a/x^2)/3)
/// with a 7-op guarded recurrence plus residual and coefficient streams.
/// 21 nodes, RecII 7.
LoopKernel make_basicmath() {
  LoopKernel k("basicmath");
  const auto i = k.index("i");                                     // 1
  const auto a = k.load(0, ref(i), "a");                           // 2
  const auto px = k.phi(carried(0), "x");                          // 3
  const auto x2 = k.binary(Opcode::kMul, ref(px), ref(px), "x2");  // 4
  const auto q = k.binary(Opcode::kDiv, ref(a), ref(x2), "q");     // 5
  const auto tx = k.binary_imm(Opcode::kMul, ref(px), 2, "tx");    // 6
  const auto s = k.binary(Opcode::kAdd, ref(tx), ref(q), "s");     // 7
  const auto xn = k.binary_imm(Opcode::kDiv, ref(s), 3, "xn");     // 8
  const auto gmax = k.binary_imm(Opcode::kMax, ref(xn), 1, "g");   // 9
  const auto xc = k.binary_imm(Opcode::kMin, ref(gmax), 1 << 30, "xc");  // 10
  k.set_operand(px, 0, carried(xc));
  k.store(1, ref(i), ref(xc), "x_out");                            // 11
  const auto er = k.binary(Opcode::kSub, ref(x2), ref(a), "er");   // 12
  const auto ea = k.unary(Opcode::kAbs, ref(er), "ea");            // 13
  k.store(2, ref(i), ref(ea), "err_out");                          // 14
  const auto b = k.load(3, ref(i), "b");                           // 15
  const auto t1 = k.binary_imm(Opcode::kMul, ref(b), 3, "t1");     // 16
  const auto t2 = k.binary(Opcode::kAdd, ref(t1), ref(ea), "t2");  // 17
  const auto t3 = k.binary_imm(Opcode::kAshr, ref(t2), 2, "t3");   // 18
  k.store(4, ref(i), ref(t3), "t_out");                            // 19
  const auto t4 = k.binary_imm(Opcode::kAnd, ref(t3), 0xFFFF, "t4");  // 20
  k.store(5, ref(i), ref(t4), "t4_out");                           // 21
  return k;
}

/// bitcount — MiBench. Kernighan clear-lowest-bit step; the LLVM-style
/// phi -> dec -> and cycle gives RecII 3. 7 nodes.
LoopKernel make_bitcount() {
  LoopKernel k("bitcount");
  const auto px = k.phi(carried(0), "x");                          // 1
  const auto dec = k.binary_imm(Opcode::kSub, ref(px), 1, "dec");  // 2
  const auto an = k.binary(Opcode::kAnd, ref(px), ref(dec), "an"); // 3
  k.set_operand(px, 0, carried(an));
  k.set_init(px, 0x5F5F5F5F);
  const auto nz = k.binary_imm(Opcode::kCmpNe, ref(an), 0, "nz");  // 4
  const auto acc = k.binary(Opcode::kAdd, carried(0), ref(nz), "acc");  // 5
  k.set_operand(acc, 0, carried(acc));
  const auto i = k.index("i");                                     // 6
  k.store(0, ref(i), ref(acc), "cnt_out");                         // 7
  return k;
}

/// cfd — Rodinia. Euler flux kernel: density/momentum/energy loads over
/// three strength-reduced address streams, five flux accumulators. The
/// widest shallow DFG of the suite. 51 nodes, RecII 2.
LoopKernel make_cfd() {
  LoopKernel k("cfd");
  const auto apA = k.phi(carried(0), "ptrA");                      // 1
  const auto aiA = k.binary_imm(Opcode::kAdd, ref(apA), 1, "incA");  // 2
  k.set_operand(apA, 0, carried(aiA));
  const auto r = k.load(0, ref(apA), "rho");                       // 3
  const auto mx = k.load(1, ref(apA), "momx");                     // 4
  const auto my = k.load(2, ref(apA), "momy");                     // 5
  const auto mz = k.load(3, ref(apA), "momz");                     // 6
  const auto apB = k.phi(carried(0), "ptrB");                      // 7
  const auto aiB = k.binary_imm(Opcode::kAdd, ref(apB), 1, "incB");  // 8
  k.set_operand(apB, 0, carried(aiB));
  const auto e = k.load(4, ref(apB), "energy");                    // 9
  const auto p = k.load(5, ref(apB), "press");                     // 10
  const auto nx = k.load(6, ref(apB), "nx");                       // 11
  const auto ny = k.load(7, ref(apB), "ny");                       // 12
  const auto apC = k.phi(carried(0), "ptrC");                      // 13
  const auto aiC = k.binary_imm(Opcode::kAdd, ref(apC), 1, "incC");  // 14
  k.set_operand(apC, 0, carried(aiC));
  const auto nz = k.load(8, ref(apC), "nz");                       // 15
  const auto v = k.load(9, ref(apC), "vel");                       // 16
  const auto fx = k.binary(Opcode::kMul, ref(mx), ref(nx), "fx");  // 17
  const auto fy = k.binary(Opcode::kMul, ref(my), ref(ny), "fy");  // 18
  const auto fz = k.binary(Opcode::kMul, ref(mz), ref(nz), "fz");  // 19
  const auto s1 = k.binary(Opcode::kAdd, ref(fx), ref(fy), "s1");  // 20
  const auto fl = k.binary(Opcode::kAdd, ref(s1), ref(fz), "fl");  // 21
  const auto flr = k.binary(Opcode::kMul, ref(fl), ref(r), "flr"); // 22
  const auto pr = k.binary(Opcode::kMul, ref(p), ref(nx), "pr");   // 23
  const auto mv = k.binary(Opcode::kMul, ref(mx), ref(v), "mv");   // 24
  const auto fmx = k.binary(Opcode::kAdd, ref(mv), ref(pr), "fmx");  // 25
  const auto pr2 = k.binary(Opcode::kMul, ref(p), ref(ny), "pr2"); // 26
  const auto mv2 = k.binary(Opcode::kMul, ref(my), ref(v), "mv2"); // 27
  const auto fmy = k.binary(Opcode::kAdd, ref(mv2), ref(pr2), "fmy");  // 28
  const auto pr3 = k.binary(Opcode::kMul, ref(p), ref(nz), "pr3"); // 29
  const auto mv3 = k.binary(Opcode::kMul, ref(mz), ref(v), "mv3"); // 30
  const auto fmz = k.binary(Opcode::kAdd, ref(mv3), ref(pr3), "fmz");  // 31
  const auto ev = k.binary(Opcode::kMul, ref(e), ref(v), "ev");    // 32
  const auto pv = k.binary(Opcode::kMul, ref(p), ref(v), "pv");    // 33
  const auto fe = k.binary(Opcode::kAdd, ref(ev), ref(pv), "fe");  // 34
  InstrId accs[5];
  const InstrId feeders[5] = {flr, fmx, fmy, fmz, fe};
  for (int lane = 0; lane < 5; ++lane) {                           // 35..44
    const auto ph = k.phi(carried(0), "facc" + std::to_string(lane));
    const auto ad = k.binary(Opcode::kAdd, ref(ph), ref(feeders[lane]),
                             "fsum" + std::to_string(lane));
    k.set_operand(ph, 0, carried(ad));
    accs[lane] = ad;
  }
  k.store(10, ref(apA), ref(accs[0]), "out_fl");                   // 45
  k.store(11, ref(apB), ref(accs[1]), "out_fmx");                  // 46
  k.store(12, ref(apC), ref(accs[2]), "out_fmy");                  // 47
  k.store(13, ref(apA), ref(accs[3]), "out_fmz");                  // 48
  k.store(14, ref(apB), ref(accs[4]), "out_fe");                   // 49
  const auto sm = k.binary(Opcode::kAdd, ref(fl), ref(fe), "sm");  // 50
  k.store(15, ref(apC), ref(sm), "out_sm");                        // 51
  return k;
}

/// crc32 — MiBench. Two chained table-lookup byte steps per iteration:
/// crc' = (crc1 >> 8) ^ T[crc1 & FF] with crc1 = (crc >> 8) ^ T[(crc^b)&FF].
/// The serial double-update is an 8-op recurrence. 24 nodes, RecII 8.
LoopKernel make_crc32() {
  LoopKernel k("crc32");
  const auto ap = k.phi(carried(0), "ptr");                        // 1
  const auto ai = k.binary_imm(Opcode::kAdd, ref(ap), 1, "inc");   // 2
  k.set_operand(ap, 0, carried(ai));
  const auto by = k.load(0, ref(ap), "byte");                      // 3
  const auto pc = k.phi(carried(0), "crc");                        // 4
  const auto x1 = k.binary(Opcode::kXor, ref(pc), ref(by), "x1");  // 5
  const auto x2 = k.binary_imm(Opcode::kAnd, ref(x1), 255, "x2");  // 6
  const auto t1 = k.load(1, ref(x2), "tab1");                      // 7
  const auto s1 = k.binary_imm(Opcode::kShr, ref(pc), 8, "s1");    // 8
  const auto c1 = k.binary(Opcode::kXor, ref(s1), ref(t1), "c1");  // 9
  const auto x3 = k.binary_imm(Opcode::kAnd, ref(c1), 255, "x3");  // 10
  const auto t2 = k.load(1, ref(x3), "tab2");                      // 11
  const auto s2 = k.binary_imm(Opcode::kShr, ref(c1), 8, "s2");    // 12
  const auto c2 = k.binary(Opcode::kXor, ref(s2), ref(t2), "c2");  // 13
  k.set_operand(pc, 0, carried(c2));
  const auto ob = k.binary_imm(Opcode::kAnd, ref(c2), 0xFFFF, "ob");  // 14
  k.store(2, ref(ap), ref(ob), "crc_out");                         // 15
  const auto by2 = k.load(3, ref(ap), "byte2");                    // 16
  const auto x5 = k.binary(Opcode::kXor, ref(by2), ref(c2), "x5"); // 17
  const auto x6 = k.binary_imm(Opcode::kAnd, ref(x5), 255, "x6");  // 18
  const auto t3 = k.load(1, ref(x6), "tab3");                      // 19
  const auto acc = k.binary(Opcode::kAdd, carried(0), ref(t3), "acc");  // 20
  k.set_operand(acc, 0, carried(acc));
  k.store(4, ref(ap), ref(acc), "acc_out");                        // 21
  const auto hi = k.binary_imm(Opcode::kShr, ref(c2), 16, "hi");   // 22
  const auto hx = k.binary_imm(Opcode::kAnd, ref(hi), 255, "hx");  // 23
  k.store(5, ref(ap), ref(hx), "hi_out");                          // 24
  return k;
}

/// fft — MiBench. Butterfly with a 7-op fixed-point twiddle recurrence
/// (wr' = wr*c - (wr*c)*wr*s style chain). 20 nodes, RecII 7.
LoopKernel make_fft() {
  LoopKernel k("fft");
  const auto ap = k.phi(carried(0), "ptr");                        // 1
  const auto ai = k.binary_imm(Opcode::kAdd, ref(ap), 2, "inc");   // 2
  k.set_operand(ap, 0, carried(ai));
  const auto xr = k.load(0, ref(ap), "xr");                        // 3
  const auto xi = k.load(1, ref(ap), "xi");                        // 4
  const auto pw = k.phi(carried(0), "w");                          // 5
  const auto m1 = k.binary_imm(Opcode::kMul, ref(pw), 31, "m1");   // 6
  const auto sh1 = k.binary_imm(Opcode::kAshr, ref(m1), 5, "sh1"); // 7
  const auto m2 = k.binary(Opcode::kMul, ref(sh1), ref(pw), "m2"); // 8
  const auto sh2 = k.binary_imm(Opcode::kAshr, ref(m2), 7, "sh2"); // 9
  const auto dd = k.binary(Opcode::kSub, ref(sh1), ref(sh2), "dd");  // 10
  const auto wn = k.binary_imm(Opcode::kMax, ref(dd), -(1 << 20), "wn");  // 11
  k.set_operand(pw, 0, carried(wn));
  k.set_init(pw, 1 << 10);
  const auto tr = k.binary(Opcode::kMul, ref(xr), ref(wn), "tr");  // 12
  const auto ti = k.binary(Opcode::kMul, ref(xi), ref(wn), "ti");  // 13
  const auto yr = k.binary(Opcode::kAdd, ref(tr), ref(xi), "yr");  // 14
  const auto yi = k.binary(Opcode::kSub, ref(ti), ref(xr), "yi");  // 15
  k.store(2, ref(ap), ref(yr), "yr_out");                          // 16
  k.store(3, ref(ap), ref(yi), "yi_out");                          // 17
  const auto er = k.binary(Opcode::kSub, ref(yr), ref(yi), "er");  // 18
  const auto ea = k.unary(Opcode::kAbs, ref(er), "ea");            // 19
  k.store(4, ref(ap), ref(ea), "mag_out");                         // 20
  return k;
}

/// gsm — MiBench telecomm. Two cascaded short-term LARp filter sections,
/// each a 4-op recurrence, plus energy accumulation and saturation clip.
/// 24 nodes, RecII 4.
LoopKernel make_gsm() {
  LoopKernel k("gsm");
  const auto ap = k.phi(carried(0), "ptr");                        // 1
  const auto ai = k.binary_imm(Opcode::kAdd, ref(ap), 1, "inc");   // 2
  k.set_operand(ap, 0, carried(ai));
  const auto s = k.load(0, ref(ap), "s");                          // 3
  const auto rp = k.load(1, ref(ap), "rp");                        // 4
  const auto pu = k.phi(carried(0), "u");                          // 5
  const auto m1 = k.binary(Opcode::kMul, ref(rp), ref(pu), "m1");  // 6
  const auto sh1 = k.binary_imm(Opcode::kAshr, ref(m1), 15, "sh1");  // 7
  const auto un = k.binary(Opcode::kAdd, ref(sh1), ref(s), "un");  // 8
  k.set_operand(pu, 0, carried(un));
  const auto sr = k.binary(Opcode::kSub, ref(s), ref(sh1), "sr");  // 9
  k.store(2, ref(ap), ref(sr), "sr_out");                          // 10
  const auto rp2 = k.load(3, ref(ap), "rp2");                      // 11
  const auto pu2 = k.phi(carried(0), "u2");                        // 12
  const auto m2 = k.binary(Opcode::kMul, ref(rp2), ref(pu2), "m2");  // 13
  const auto sh2 = k.binary_imm(Opcode::kAshr, ref(m2), 15, "sh2");  // 14
  const auto un2 = k.binary(Opcode::kAdd, ref(sh2), ref(sr), "un2");  // 15
  k.set_operand(pu2, 0, carried(un2));
  const auto sr2 = k.binary(Opcode::kSub, ref(sr), ref(sh2), "sr2");  // 16
  k.store(4, ref(ap), ref(sr2), "sr2_out");                        // 17
  const auto e = k.binary(Opcode::kMul, ref(sr2), ref(sr2), "e");  // 18
  const auto es = k.binary_imm(Opcode::kAshr, ref(e), 3, "es");    // 19
  const auto acc = k.binary(Opcode::kAdd, carried(0), ref(es), "acc");  // 20
  k.set_operand(acc, 0, carried(acc));
  k.store(5, ref(ap), ref(acc), "e_out");                          // 21
  const auto clip = k.binary_imm(Opcode::kMin, ref(sr2), 32767, "clip");  // 22
  const auto cl2 = k.binary_imm(Opcode::kMax, ref(clip), -32768, "cl2");  // 23
  k.store(6, ref(ap), ref(cl2), "clip_out");                       // 24
  return k;
}

/// heartwall — Rodinia. Template-matching correlation statistics: six
/// masked 3-op accumulators over image/template pixels. 35 nodes, RecII 3.
LoopKernel make_heartwall() {
  LoopKernel k("heartwall");
  const auto ap = k.phi(carried(0), "ptr");                        // 1
  const auto ai = k.binary_imm(Opcode::kAdd, ref(ap), 1, "inc");   // 2
  k.set_operand(ap, 0, carried(ai));
  const auto im = k.load(0, ref(ap), "im");                        // 3
  const auto tp = k.load(1, ref(ap), "tp");                        // 4
  const auto d = k.binary(Opcode::kSub, ref(im), ref(tp), "d");    // 5
  const auto d2 = k.binary(Opcode::kMul, ref(d), ref(d), "d2");    // 6
  auto masked_acc = [&k](InstrId feeder, const std::string& name) {
    const auto ph = k.phi(carried(0), name);
    const auto ad = k.binary(Opcode::kAdd, ref(ph), ref(feeder), name + "_a");
    const auto ms = k.binary_imm(Opcode::kAnd, ref(ad), kAccMask, name + "_m");
    k.set_operand(ph, 0, carried(ms));
    return ms;
  };
  const auto ssd = masked_acc(d2, "ssd");                          // 7..9
  k.store(2, ref(ap), ref(ssd), "ssd_out");                        // 10
  const auto sim = masked_acc(im, "sim");                          // 11..13
  const auto stp = masked_acc(tp, "stp");                          // 14..16
  const auto mit = k.binary(Opcode::kMul, ref(im), ref(tp), "mit");  // 17
  const auto sit = masked_acc(mit, "sit");                         // 18..20
  const auto mi2 = k.binary(Opcode::kMul, ref(im), ref(im), "mi2");  // 21
  const auto si2 = masked_acc(mi2, "si2");                         // 22..24
  const auto mt2 = k.binary(Opcode::kMul, ref(tp), ref(tp), "mt2");  // 25
  const auto st2 = masked_acc(mt2, "st2");                         // 26..28
  const auto nm = k.binary(Opcode::kMul, ref(sim), ref(stp), "nm");  // 29
  const auto ns = k.binary_imm(Opcode::kAshr, ref(nm), 8, "ns");   // 30
  const auto nd = k.binary(Opcode::kSub, ref(sit), ref(ns), "nd"); // 31
  k.store(3, ref(ap), ref(nd), "corr_out");                        // 32
  const auto dn = k.binary(Opcode::kAdd, ref(si2), ref(st2), "dn");  // 33
  const auto dns = k.binary_imm(Opcode::kAshr, ref(dn), 1, "dns"); // 34
  k.store(4, ref(ap), ref(dns), "den_out");                        // 35
  return k;
}

/// hotspot3D — Rodinia. 7-point thermal stencil plus a second-slice 3-point
/// pass, max-temperature and energy accumulators. The largest DFG of the
/// suite (57 nodes), all recurrences length 2.
LoopKernel make_hotspot3d() {
  LoopKernel k("hotspot3D");
  const auto apA = k.phi(carried(0), "ptrA");                      // 1
  const auto aiA = k.binary_imm(Opcode::kAdd, ref(apA), 1, "incA");  // 2
  k.set_operand(apA, 0, carried(aiA));
  const auto apB = k.phi(carried(0), "ptrB");                      // 3
  const auto aiB = k.binary_imm(Opcode::kAdd, ref(apB), 1, "incB");  // 4
  k.set_operand(apB, 0, carried(aiB));
  const auto c = k.load(0, ref(apA), "c");                         // 5
  const auto n = k.load(1, ref(apA), "n");                         // 6
  const auto s = k.load(2, ref(apA), "s");                         // 7
  const auto e = k.load(3, ref(apA), "e");                         // 8
  const auto w = k.load(4, ref(apB), "w");                         // 9
  const auto t = k.load(5, ref(apB), "t");                         // 10
  const auto b = k.load(6, ref(apB), "b");                         // 11
  const auto pw = k.load(7, ref(apB), "pow");                      // 12
  auto face = [&k, c](InstrId nb, std::int64_t wgt, const std::string& nm) {
    const auto df = k.binary(Opcode::kSub, ref(nb), ref(c), nm + "_d");
    return k.binary_imm(Opcode::kMul, ref(df), wgt, nm + "_w");
  };
  const auto fn = face(n, 3, "fn");                                // 13,14
  const auto fs = face(s, 3, "fs");                                // 15,16
  const auto fe2 = face(e, 5, "fe");                               // 17,18
  const auto fw = face(w, 5, "fw");                                // 19,20
  const auto ft = face(t, 7, "ft");                                // 21,22
  const auto fb = face(b, 7, "fb");                                // 23,24
  const auto s1 = k.binary(Opcode::kAdd, ref(fn), ref(fs), "s1");  // 25
  const auto s2 = k.binary(Opcode::kAdd, ref(fe2), ref(fw), "s2"); // 26
  const auto s3 = k.binary(Opcode::kAdd, ref(ft), ref(fb), "s3");  // 27
  const auto s4 = k.binary(Opcode::kAdd, ref(s1), ref(s2), "s4");  // 28
  const auto s5 = k.binary(Opcode::kAdd, ref(s4), ref(s3), "s5");  // 29
  const auto sp = k.binary(Opcode::kAdd, ref(s5), ref(pw), "sp");  // 30
  const auto scl = k.binary_imm(Opcode::kAshr, ref(sp), 6, "scl"); // 31
  const auto tn = k.binary(Opcode::kAdd, ref(c), ref(scl), "tn");  // 32
  k.store(8, ref(apA), ref(tn), "t_out");                          // 33
  const auto bp = k.phi(carried(0), "ptrC");                       // 34
  const auto bi = k.binary_imm(Opcode::kAdd, ref(bp), 1, "incC");  // 35
  k.set_operand(bp, 0, carried(bi));
  const auto c2 = k.load(9, ref(bp), "c2");                        // 36
  const auto n2 = k.load(10, ref(bp), "n2");                       // 37
  const auto s2l = k.load(11, ref(bp), "s2l");                     // 38
  const auto pw2 = k.load(12, ref(bp), "pow2");                    // 39
  const auto d7 = k.binary(Opcode::kSub, ref(n2), ref(c2), "d7");  // 40
  const auto w7 = k.binary_imm(Opcode::kMul, ref(d7), 3, "w7");    // 41
  const auto d8 = k.binary(Opcode::kSub, ref(s2l), ref(c2), "d8"); // 42
  const auto w8 = k.binary_imm(Opcode::kMul, ref(d8), 3, "w8");    // 43
  const auto s6 = k.binary(Opcode::kAdd, ref(w7), ref(w8), "s6");  // 44
  const auto s7 = k.binary(Opcode::kAdd, ref(s6), ref(pw2), "s7"); // 45
  const auto sc2 = k.binary_imm(Opcode::kAshr, ref(s7), 6, "sc2"); // 46
  const auto tn2 = k.binary(Opcode::kAdd, ref(c2), ref(sc2), "tn2");  // 47
  k.store(13, ref(bp), ref(tn2), "t2_out");                        // 48
  const auto pmx = k.phi(carried(0), "maxt");                      // 49
  const auto mx = k.binary(Opcode::kMax, ref(pmx), ref(tn), "mx"); // 50
  k.set_operand(pmx, 0, carried(mx));
  const auto pmx2 = k.phi(carried(0), "maxt2");                    // 51
  const auto mx2 = k.binary(Opcode::kMax, ref(pmx2), ref(tn2), "mx2");  // 52
  k.set_operand(pmx2, 0, carried(mx2));
  const auto gm = k.binary(Opcode::kMax, ref(mx), ref(mx2), "gm"); // 53
  k.store(14, ref(apB), ref(gm), "max_out");                       // 54
  const auto pen = k.phi(carried(0), "energy");                    // 55
  const auto en = k.binary(Opcode::kAdd, ref(pen), ref(sp), "en"); // 56
  k.set_operand(pen, 0, carried(en));
  k.store(15, ref(bp), ref(en), "e_out");                          // 57
  return k;
}

/// lud — Rodinia. Two row-elimination MAC lanes with masked 3-op dot-product
/// accumulators and pivot divisions. 26 nodes, RecII 3.
LoopKernel make_lud() {
  LoopKernel k("lud");
  const auto ap = k.phi(carried(0), "ptr");                        // 1
  const auto ai = k.binary_imm(Opcode::kAdd, ref(ap), 1, "inc");   // 2
  k.set_operand(ap, 0, carried(ai));
  const auto a = k.load(0, ref(ap), "a");                          // 3
  const auto l = k.load(1, ref(ap), "l");                          // 4
  const auto u = k.load(2, ref(ap), "u");                          // 5
  const auto m = k.binary(Opcode::kMul, ref(l), ref(u), "m");      // 6
  const auto pa = k.phi(carried(0), "dot");                        // 7
  const auto sum = k.binary(Opcode::kAdd, ref(pa), ref(m), "sum"); // 8
  const auto sm = k.binary_imm(Opcode::kAnd, ref(sum), kAccMask, "sm");  // 9
  k.set_operand(pa, 0, carried(sm));
  const auto d = k.binary(Opcode::kSub, ref(a), ref(sm), "d");     // 10
  const auto piv = k.load(3, ref(ap), "piv");                      // 11
  const auto q = k.binary(Opcode::kDiv, ref(d), ref(piv), "q");    // 12
  k.store(4, ref(ap), ref(q), "q_out");                            // 13
  const auto l2 = k.load(5, ref(ap), "l2");                        // 14
  const auto u2 = k.load(6, ref(ap), "u2");                        // 15
  const auto m2 = k.binary(Opcode::kMul, ref(l2), ref(u2), "m2");  // 16
  const auto pa2 = k.phi(carried(0), "dot2");                      // 17
  const auto sum2 = k.binary(Opcode::kAdd, ref(pa2), ref(m2), "sum2");  // 18
  const auto sm2 = k.binary_imm(Opcode::kAnd, ref(sum2), kAccMask, "sm2");  // 19
  k.set_operand(pa2, 0, carried(sm2));
  const auto d2 = k.binary(Opcode::kSub, ref(a), ref(sm2), "d2");  // 20
  const auto q2 = k.binary(Opcode::kDiv, ref(d2), ref(piv), "q2"); // 21
  k.store(7, ref(ap), ref(q2), "q2_out");                          // 22
  const auto rr = k.binary(Opcode::kMul, ref(q), ref(q2), "rr");   // 23
  const auto rs = k.binary_imm(Opcode::kAshr, ref(rr), 4, "rs");   // 24
  const auto acc = k.binary(Opcode::kAdd, carried(0), ref(rs), "acc");  // 25
  k.set_operand(acc, 0, carried(acc));
  k.store(8, ref(ap), ref(acc), "acc_out");                        // 26
  return k;
}

/// nw — Rodinia. Two Needleman-Wunsch score cells (diag/left/up max with gap
/// penalties), running maxima, cross-lane diff. 33 nodes, RecII 2.
LoopKernel make_nw() {
  LoopKernel k("nw");
  const auto ap = k.phi(carried(0), "ptr");                        // 1
  const auto ai = k.binary_imm(Opcode::kAdd, ref(ap), 1, "inc");   // 2
  k.set_operand(ap, 0, carried(ai));
  const auto nw_ = k.load(0, ref(ap), "nw");                       // 3
  const auto w = k.load(1, ref(ap), "w");                          // 4
  const auto n = k.load(2, ref(ap), "n");                          // 5
  const auto rf = k.load(3, ref(ap), "ref");                       // 6
  const auto m1 = k.binary(Opcode::kAdd, ref(nw_), ref(rf), "m1"); // 7
  const auto m2 = k.binary_imm(Opcode::kSub, ref(w), 10, "m2");    // 8
  const auto m3 = k.binary_imm(Opcode::kSub, ref(n), 10, "m3");    // 9
  const auto mx1 = k.binary(Opcode::kMax, ref(m1), ref(m2), "mx1");  // 10
  const auto mx2 = k.binary(Opcode::kMax, ref(mx1), ref(m3), "mx2");  // 11
  k.store(4, ref(ap), ref(mx2), "cell_out");                       // 12
  const auto pm = k.phi(carried(0), "runmax");                     // 13
  const auto rm = k.binary(Opcode::kMax, ref(pm), ref(mx2), "rm"); // 14
  k.set_operand(pm, 0, carried(rm));
  const auto bp = k.phi(carried(0), "ptrB");                       // 15
  const auto bi = k.binary_imm(Opcode::kAdd, ref(bp), 1, "incB");  // 16
  k.set_operand(bp, 0, carried(bi));
  const auto nw2 = k.load(5, ref(bp), "nw2");                      // 17
  const auto w2 = k.load(6, ref(bp), "w2");                        // 18
  const auto n2 = k.load(7, ref(bp), "n2");                        // 19
  const auto rf2 = k.load(8, ref(bp), "ref2");                     // 20
  const auto m1b = k.binary(Opcode::kAdd, ref(nw2), ref(rf2), "m1b");  // 21
  const auto m2b = k.binary_imm(Opcode::kSub, ref(w2), 10, "m2b"); // 22
  const auto m3b = k.binary_imm(Opcode::kSub, ref(n2), 10, "m3b"); // 23
  const auto mx1b = k.binary(Opcode::kMax, ref(m1b), ref(m2b), "mx1b");  // 24
  const auto mx2b = k.binary(Opcode::kMax, ref(mx1b), ref(m3b), "mx2b");  // 25
  k.store(9, ref(bp), ref(mx2b), "cell2_out");                     // 26
  const auto pm2 = k.phi(carried(0), "runmax2");                   // 27
  const auto rm2 = k.binary(Opcode::kMax, ref(pm2), ref(mx2b), "rm2");  // 28
  k.set_operand(pm2, 0, carried(rm2));
  const auto gmx = k.binary(Opcode::kMax, ref(rm), ref(rm2), "gmx");  // 29
  k.store(10, ref(ap), ref(gmx), "max_out");                       // 30
  const auto df = k.binary(Opcode::kSub, ref(mx2), ref(mx2b), "df");  // 31
  const auto da = k.unary(Opcode::kAbs, ref(df), "da");            // 32
  k.store(11, ref(bp), ref(da), "diff_out");                       // 33
  return k;
}

/// particlefilter — Rodinia. 9-op clamped weight-normalisation recurrence,
/// CDF accumulation, particle position update, second likelihood lane.
/// 38 nodes, RecII 9.
LoopKernel make_particlefilter() {
  LoopKernel k("particlefilter");
  const auto ap = k.phi(carried(0), "ptr");                        // 1
  const auto ai = k.binary_imm(Opcode::kAdd, ref(ap), 1, "inc");   // 2
  k.set_operand(ap, 0, carried(ai));
  const auto ob = k.load(0, ref(ap), "obs");                       // 3
  const auto pt = k.load(1, ref(ap), "part");                      // 4
  const auto d = k.binary(Opcode::kSub, ref(ob), ref(pt), "d");    // 5
  const auto d2 = k.binary(Opcode::kMul, ref(d), ref(d), "d2");    // 6
  const auto dn = k.binary_imm(Opcode::kAshr, ref(d2), 7, "dn");   // 7
  const auto pw = k.phi(carried(0), "wgt");                        // 8
  const auto m = k.binary(Opcode::kMul, ref(pw), ref(dn), "m");    // 9
  const auto s1 = k.binary_imm(Opcode::kAshr, ref(m), 10, "s1");   // 10
  const auto a1 = k.binary_imm(Opcode::kAdd, ref(s1), 1, "a1");    // 11
  const auto mn = k.binary_imm(Opcode::kMin, ref(a1), 1 << 24, "mn");  // 12
  const auto mx = k.binary_imm(Opcode::kMax, ref(mn), 1, "mx");    // 13
  const auto m3 = k.binary_imm(Opcode::kMul, ref(mx), 205, "m3");  // 14
  const auto s4 = k.binary_imm(Opcode::kAshr, ref(m3), 8, "s4");   // 15
  const auto wn = k.binary(Opcode::kSub, ref(s4), ref(dn), "wn");  // 16
  k.set_operand(pw, 0, carried(wn));
  k.set_init(pw, 512);
  k.store(2, ref(ap), ref(wn), "w_out");                           // 17
  const auto pc = k.phi(carried(0), "cdf");                        // 18
  const auto cs = k.binary(Opcode::kAdd, ref(pc), ref(wn), "cs");  // 19
  k.set_operand(pc, 0, carried(cs));
  k.store(3, ref(ap), ref(cs), "cdf_out");                         // 20
  const auto pt2 = k.load(4, ref(ap), "pt2");                      // 21
  const auto vel = k.load(5, ref(ap), "vel");                      // 22
  const auto np = k.binary(Opcode::kAdd, ref(pt2), ref(vel), "np");  // 23
  const auto nz = k.binary_imm(Opcode::kAnd, ref(np), 0xFFFF, "nz");  // 24
  k.store(6, ref(ap), ref(nz), "pos_out");                         // 25
  const auto d2b = k.binary(Opcode::kSub, ref(ob), ref(np), "d2b");  // 26
  const auto sq = k.binary(Opcode::kMul, ref(d2b), ref(d2b), "sq");  // 27
  const auto sn = k.binary_imm(Opcode::kAshr, ref(sq), 7, "sn");   // 28
  const auto pw2 = k.phi(carried(0), "wgt2");                      // 29
  const auto m2b = k.binary(Opcode::kMul, ref(pw2), ref(sn), "m2b");  // 30
  const auto w2 = k.binary_imm(Opcode::kAshr, ref(m2b), 10, "w2"); // 31
  k.set_operand(pw2, 0, carried(w2));
  k.set_init(pw2, 1024);
  k.store(7, ref(ap), ref(w2), "w2_out");                          // 32
  const auto tw = k.binary(Opcode::kAdd, ref(wn), ref(w2), "tw");  // 33
  const auto ts = k.binary_imm(Opcode::kAshr, ref(tw), 1, "ts");   // 34
  k.store(8, ref(ap), ref(ts), "tw_out");                          // 35
  const auto mxw = k.binary(Opcode::kMax, carried(0), ref(tw), "mxw");  // 36
  k.set_operand(mxw, 0, carried(mxw));
  k.store(9, ref(ap), ref(mxw), "mxw_out");                        // 37
  k.binary_imm(Opcode::kCmpLt, ref(ts), 1000, "resample");         // 38
  return k;
}

/// sha1 — MiBench. Message-schedule expansion W[i] = rol1(W[i-3] ^ W[i-8] ^
/// W[i-14]): the distance-3 carried reference over the 4-op chain gives
/// RecII = ceil(4/3) = 2. 21 nodes.
LoopKernel make_sha1() {
  LoopKernel k("sha1");
  const auto ap = k.phi(carried(0), "ptr");                        // 1
  const auto ai = k.binary_imm(Opcode::kAdd, ref(ap), 1, "inc");   // 2
  k.set_operand(ap, 0, carried(ai));
  // Forward references to the schedule word (instruction id 6).
  const InstrId wv_id = 6;
  const auto x1 = k.binary(Opcode::kXor, carried(wv_id, 3),
                           carried(wv_id, 8), "x1");               // 3
  const auto x2 = k.binary(Opcode::kXor, ref(x1), carried(wv_id, 14), "x2");  // 4
  const auto sl = k.binary_imm(Opcode::kShl, ref(x2), 1, "sl");    // 5
  const auto sr = k.binary_imm(Opcode::kShr, ref(x2), 31, "sr");   // 6
  const auto wv = k.binary(Opcode::kOr, ref(sl), ref(sr), "w");    // 7
  MONOMAP_ASSERT(wv == wv_id);
  k.set_init(wv, 0x67452301);
  k.store(0, ref(ap), ref(wv), "w_out");                           // 8
  const auto kc = k.load(1, ref(ap), "k");                         // 9
  const auto tw = k.binary(Opcode::kAdd, ref(wv), ref(kc), "tw");  // 10
  k.store(2, ref(ap), ref(tw), "tw_out");                          // 11
  const auto pa = k.phi(carried(0), "sum");                        // 12
  const auto ac = k.binary(Opcode::kAdd, ref(pa), ref(tw), "ac");  // 13
  k.set_operand(pa, 0, carried(ac));
  k.store(3, ref(ap), ref(ac), "sum_out");                         // 14
  const auto b1 = k.binary_imm(Opcode::kAnd, ref(wv), 255, "b1");  // 15
  const auto b2 = k.binary_imm(Opcode::kShr, ref(wv), 24, "b2");   // 16
  const auto bx = k.binary(Opcode::kXor, ref(b1), ref(b2), "bx");  // 17
  k.store(4, ref(ap), ref(bx), "bx_out");                          // 18
  const auto pr = k.phi(carried(0), "bmax");                       // 19
  const auto mxb = k.binary(Opcode::kMax, ref(pr), ref(bx), "mxb");  // 20
  k.set_operand(pr, 0, carried(mxb));
  k.store(5, ref(ap), ref(mxb), "bmax_out");                       // 21
  return k;
}

/// sha2 — round-function sketch: Σ0-style shift/xor chain through the state
/// (7-op recurrence), choose function, digest accumulation. 25 nodes,
/// RecII 7.
LoopKernel make_sha2() {
  LoopKernel k("sha2");
  const auto ap = k.phi(carried(0), "ptr");                        // 1
  const auto ai = k.binary_imm(Opcode::kAdd, ref(ap), 1, "inc");   // 2
  k.set_operand(ap, 0, carried(ai));
  const auto w = k.load(0, ref(ap), "w");                          // 3
  const auto kc = k.load(1, ref(ap), "k");                         // 4
  const auto wk = k.binary(Opcode::kAdd, ref(w), ref(kc), "wk");   // 5
  const auto ps = k.phi(carried(0), "state");                      // 6
  const auto r1 = k.binary_imm(Opcode::kShr, ref(ps), 6, "r1");    // 7
  const auto xx1 = k.binary(Opcode::kXor, ref(r1), ref(wk), "xx1");  // 8
  const auto a1 = k.binary(Opcode::kAdd, ref(xx1), ref(w), "a1");  // 9
  const auto r2 = k.binary_imm(Opcode::kShl, ref(a1), 7, "r2");    // 10
  const auto xx2 = k.binary(Opcode::kXor, ref(r2), ref(kc), "xx2");  // 11
  const auto ns = k.binary_imm(Opcode::kAnd, ref(xx2), (1LL << 30) - 1, "ns");  // 12
  k.set_operand(ps, 0, carried(ns));
  k.set_init(ps, 0x6A09E667);
  k.store(2, ref(ap), ref(ns), "state_out");                       // 13
  const auto ch = k.binary(Opcode::kAnd, ref(ns), ref(w), "ch");   // 14
  const auto nt = k.unary(Opcode::kNot, ref(ns), "nt");            // 15
  const auto ch2 = k.binary(Opcode::kAnd, ref(nt), ref(kc), "ch2");  // 16
  const auto cho = k.binary(Opcode::kOr, ref(ch), ref(ch2), "cho");  // 17
  k.store(3, ref(ap), ref(cho), "cho_out");                        // 18
  const auto pa = k.phi(carried(0), "dig");                        // 19
  const auto ac = k.binary(Opcode::kAdd, ref(pa), ref(cho), "ac"); // 20
  k.set_operand(pa, 0, carried(ac));
  k.store(4, ref(ap), ref(ac), "dig_out");                         // 21
  const auto h1 = k.binary_imm(Opcode::kShr, ref(cho), 16, "h1");  // 22
  const auto h2 = k.binary(Opcode::kXor, ref(h1), ref(cho), "h2"); // 23
  const auto hm = k.binary_imm(Opcode::kAnd, ref(h2), 0xFFFF, "hm");  // 24
  k.store(5, ref(ap), ref(hm), "hash_out");                        // 25
  return k;
}

/// stringsearch — MiBench. Boyer-Moore-Horspool position update
/// pos' = pos + skip[text[pos]] — a 3-op recurrence through two loads —
/// plus match counting and a hash probe lane. 28 nodes, RecII 3.
LoopKernel make_stringsearch() {
  LoopKernel k("stringsearch");
  const InstrId np_id = 2;  // forward reference to the position update
  const auto ch = k.load(0, carried(np_id, 1), "ch");              // 1
  const auto sk = k.load(1, ref(ch), "skip");                      // 2
  const auto np = k.binary(Opcode::kAdd, carried(np_id, 1), ref(sk), "np");  // 3
  MONOMAP_ASSERT(np == np_id);
  const auto cm = k.load(2, ref(ch), "pat");                       // 4
  const auto eq = k.binary(Opcode::kCmpEq, ref(ch), ref(cm), "eq");  // 5
  const auto pa = k.phi(carried(0), "matches");                    // 6
  const auto cnt = k.binary(Opcode::kAdd, ref(pa), ref(eq), "cnt");  // 7
  k.set_operand(pa, 0, carried(cnt));
  const auto ap2 = k.phi(carried(0), "optr");                      // 8
  const auto ai2 = k.binary_imm(Opcode::kAdd, ref(ap2), 1, "oinc");  // 9
  k.set_operand(ap2, 0, carried(ai2));
  k.store(3, ref(ap2), ref(cnt), "cnt_out");                       // 10
  k.store(4, ref(ap2), ref(np), "pos_out");                        // 11
  const auto ch2 = k.load(5, ref(np), "ch2");                      // 12
  const auto sk2 = k.load(6, ref(ch2), "skip2");                   // 13
  const auto h1 = k.binary_imm(Opcode::kMul, ref(ch2), 31, "h1");  // 14
  const auto h2 = k.binary(Opcode::kAdd, ref(h1), ref(ch), "h2");  // 15
  const auto hm = k.binary_imm(Opcode::kAnd, ref(h2), 255, "hm");  // 16
  const auto tb = k.load(7, ref(hm), "tb");                        // 17
  const auto eq2 = k.binary(Opcode::kCmpEq, ref(tb), ref(ch2), "eq2");  // 18
  const auto pa2 = k.phi(carried(0), "matches2");                  // 19
  const auto c2 = k.binary(Opcode::kAdd, ref(pa2), ref(eq2), "c2");  // 20
  k.set_operand(pa2, 0, carried(c2));
  k.store(8, ref(ap2), ref(c2), "cnt2_out");                       // 21
  const auto mxs = k.binary(Opcode::kMax, ref(sk2), ref(sk), "mxs");  // 22
  const auto adv = k.binary(Opcode::kAdd, ref(np), ref(mxs), "adv");  // 23
  k.store(9, ref(ap2), ref(adv), "adv_out");                       // 24
  const auto lo = k.binary_imm(Opcode::kAnd, ref(adv), 255, "lo"); // 25
  const auto ld2 = k.load(10, ref(lo), "probe");                   // 26
  const auto acc2 = k.binary(Opcode::kAdd, carried(0), ref(ld2), "acc2");  // 27
  k.set_operand(acc2, 0, carried(acc2));
  k.store(11, ref(ap2), ref(acc2), "probe_out");                   // 28
  return k;
}

/// susan — MiBench. Two brightness-difference/threshold lanes with USAN
/// area accumulators. 21 nodes, RecII 2.
LoopKernel make_susan() {
  LoopKernel k("susan");
  const auto ap = k.phi(carried(0), "ptr");                        // 1
  const auto ai = k.binary_imm(Opcode::kAdd, ref(ap), 1, "inc");   // 2
  k.set_operand(ap, 0, carried(ai));
  const auto c = k.load(0, ref(ap), "center");                     // 3
  const auto p = k.load(1, ref(ap), "pix");                        // 4
  const auto d = k.binary(Opcode::kSub, ref(p), ref(c), "d");      // 5
  const auto da = k.unary(Opcode::kAbs, ref(d), "da");             // 6
  const auto th = k.binary_imm(Opcode::kCmpLt, ref(da), 20, "th"); // 7
  const auto pa = k.phi(carried(0), "usan");                       // 8
  const auto na = k.binary(Opcode::kAdd, ref(pa), ref(th), "na");  // 9
  k.set_operand(pa, 0, carried(na));
  k.store(2, ref(ap), ref(na), "usan_out");                        // 10
  const auto p2 = k.load(3, ref(ap), "pix2");                      // 11
  const auto d2 = k.binary(Opcode::kSub, ref(p2), ref(c), "d2");   // 12
  const auto da2 = k.unary(Opcode::kAbs, ref(d2), "da2");          // 13
  const auto th2 = k.binary_imm(Opcode::kCmpLt, ref(da2), 20, "th2");  // 14
  const auto pa2 = k.phi(carried(0), "usan2");                     // 15
  const auto n2 = k.binary(Opcode::kAdd, ref(pa2), ref(th2), "n2");  // 16
  k.set_operand(pa2, 0, carried(n2));
  k.store(4, ref(ap), ref(n2), "usan2_out");                       // 17
  const auto tt = k.binary(Opcode::kAdd, ref(th), ref(th2), "tt"); // 18
  const auto ws = k.binary(Opcode::kAdd, carried(0), ref(tt), "wsum");  // 19
  k.set_operand(ws, 0, carried(ws));
  const auto gm = k.binary(Opcode::kMax, ref(na), ref(n2), "gm");  // 20
  k.store(5, ref(ap), ref(gm), "gm_out");                          // 21
  return k;
}

Benchmark finish(LoopKernel kernel, int nodes, int rec,
                 std::array<int, 4> paper_ii, std::array<int, 4> paper_mii) {
  kernel.validate();
  Dfg dfg = Dfg::from_kernel(kernel);
  std::string name = kernel.name();
  return Benchmark{std::move(name), std::move(kernel), std::move(dfg),
                   nodes, rec, paper_ii, paper_mii};
}

std::vector<Benchmark> build_suite() {
  std::vector<Benchmark> all;
  all.reserve(17);
  // Table III data: II and mII per {2x2, 5x5, 10x10, 20x20}; -1 marks a
  // timeout of the corresponding tool in the paper.
  all.push_back(finish(make_aes(), 23, 14, {16, 16, 16, 16}, {14, 14, 14, 14}));
  all.push_back(finish(make_backprop(), 34, 5, {10, 5, 5, 5}, {9, 5, 5, 5}));
  all.push_back(finish(make_basicmath(), 21, 7, {7, 7, 7, 7}, {7, 7, 7, 7}));
  all.push_back(finish(make_bitcount(), 7, 3, {3, 3, 3, 3}, {3, 3, 3, 3}));
  all.push_back(finish(make_cfd(), 51, 2, {-1, 3, -1, -1}, {13, 3, 2, 2}));
  all.push_back(finish(make_crc32(), 24, 8, {11, 11, 11, 11}, {8, 8, 8, 8}));
  all.push_back(finish(make_fft(), 20, 7, {7, 7, 7, 7}, {7, 7, 7, 7}));
  all.push_back(finish(make_gsm(), 24, 4, {6, 5, 5, 5}, {6, 4, 4, 4}));
  all.push_back(finish(make_heartwall(), 35, 3, {9, 3, 3, 3}, {9, 3, 3, 3}));
  all.push_back(
      finish(make_hotspot3d(), 57, 2, {17, 6, -1, -1}, {15, 3, 2, 2}));
  all.push_back(finish(make_lud(), 26, 3, {7, 3, 3, 3}, {7, 3, 3, 3}));
  all.push_back(finish(make_nw(), 33, 2, {9, 2, 2, 2}, {9, 2, 2, 2}));
  all.push_back(
      finish(make_particlefilter(), 38, 9, {10, 9, 9, 9}, {10, 9, 9, 9}));
  all.push_back(finish(make_sha1(), 21, 2, {6, 4, 4, 4}, {6, 2, 2, 2}));
  // sha2 2x2: the paper prints mII 6, inconsistent with its own RecII 7 on
  // larger grids; we list the self-consistent 7 (see EXPERIMENTS.md).
  all.push_back(finish(make_sha2(), 25, 7, {7, 7, 7, 7}, {7, 7, 7, 7}));
  all.push_back(
      finish(make_stringsearch(), 28, 3, {7, 3, 3, 3}, {7, 3, 3, 3}));
  all.push_back(finish(make_susan(), 21, 2, {6, 2, 2, 2}, {6, 2, 2, 2}));
  return all;
}

}  // namespace

const std::vector<Benchmark>& benchmark_suite() {
  static const std::vector<Benchmark> suite = build_suite();
  return suite;
}

const Benchmark& benchmark_by_name(const std::string& name) {
  for (const Benchmark& b : benchmark_suite()) {
    if (b.name == name) return b;
  }
  MONOMAP_CHECK_INPUT(false, "unknown benchmark '" << name << "'");
  return benchmark_suite().front();  // unreachable: the check throws
}

}  // namespace monomap
