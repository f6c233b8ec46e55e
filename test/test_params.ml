(* Tests for the protocol-constant cascade (paper §3). *)

open Helpers
module P = Ssba_core.Params

let test_d_formula () =
  let p = P.make ~n:7 ~f:2 ~delta:0.001 ~pi:0.0001 ~rho:0.0001 in
  check_float "d = (delta + pi)(1 + rho)" (0.0011 *. 1.0001) p.P.d

let test_cascade () =
  let p = P.make ~n:10 ~f:3 ~delta:1.0 ~pi:0.0 ~rho:0.0 in
  (* with delta = 1, pi = rho = 0 we get d = 1, so every constant is its
     coefficient *)
  check_float "d" 1.0 p.P.d;
  check_float "tau_skew = 6d" 6.0 p.P.tau_skew;
  check_float "Phi = 8d" 8.0 p.P.phi;
  check_float "Dagr = (2f+1)Phi = 56d" 56.0 p.P.delta_agr;
  check_float "D0 = 13d" 13.0 p.P.delta_0;
  check_float "Drmv = Dagr + D0 = 69d" 69.0 p.P.delta_rmv;
  check_float "Dv = 15d + 2 Drmv = 153d" 153.0 p.P.delta_v;
  check_float "Dnode = Dv + Dagr = 209d" 209.0 p.P.delta_node;
  check_float "Dreset = 20d + 4 Drmv = 296d" 296.0 p.P.delta_reset;
  check_float "Dstb = 2 Dreset = 592d" 592.0 p.P.delta_stb

let test_max_faults () =
  check_int "n=4" 1 (P.max_faults 4);
  check_int "n=6" 1 (P.max_faults 6);
  check_int "n=7" 2 (P.max_faults 7);
  check_int "n=10" 3 (P.max_faults 10);
  check_int "n=31" 10 (P.max_faults 31);
  check_int "n=1" 0 (P.max_faults 1)

let test_quorums () =
  let p = P.default 10 in
  check_int "quorum n - f" 7 (P.quorum p);
  check_int "weak quorum n - 2f" 4 (P.weak_quorum p);
  (* two strong quorums intersect in > f nodes; a weak quorum holds at least
     one correct node — the standard n > 3f facts the proofs rest on *)
  check_bool "quorum overlap > f" true ((2 * P.quorum p) - p.P.n > p.P.f);
  check_bool "weak quorum has a correct node" true (P.weak_quorum p > p.P.f)

let test_validate () =
  check_bool "n > 3f ok" true (P.validate (P.make ~n:7 ~f:2 ~delta:1.0 ~pi:0.0 ~rho:0.0) = Ok ());
  (match P.validate (P.make ~n:6 ~f:2 ~delta:1.0 ~pi:0.0 ~rho:0.0) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "n = 3f must be rejected");
  match P.validate (P.default 4) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_default_f () =
  let p = P.default 13 in
  check_int "default f = max_faults" 4 p.P.f;
  let p = P.default ~f:1 13 in
  check_int "explicit f respected" 1 p.P.f

let test_bad_inputs () =
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () -> P.make ~n:0 ~f:0 ~delta:1.0 ~pi:0.0 ~rho:0.0);
  expect_invalid (fun () -> P.make ~n:4 ~f:(-1) ~delta:1.0 ~pi:0.0 ~rho:0.0);
  expect_invalid (fun () -> P.make ~n:4 ~f:1 ~delta:0.0 ~pi:0.0 ~rho:0.0);
  expect_invalid (fun () -> P.make ~n:4 ~f:1 ~delta:1.0 ~pi:(-0.1) ~rho:0.0);
  expect_invalid (fun () -> P.make ~n:4 ~f:1 ~delta:1.0 ~pi:0.0 ~rho:1.0);
  (* NaN, and a delta so large that Delta_stb overflows: refused here, not
     met mid-run as a NaN engine delay *)
  List.iter
    (fun delta -> expect_invalid (fun () -> P.make ~n:4 ~f:1 ~delta ~pi:0.0 ~rho:0.0))
    [ infinity; nan; 1e307 ];
  expect_invalid (fun () -> P.make ~n:4 ~f:1 ~delta:1.0 ~pi:nan ~rho:0.0);
  expect_invalid (fun () -> P.make ~n:4 ~f:1 ~delta:1.0 ~pi:0.0 ~rho:nan)

(* Golden test for the printed cascade. Regression: [pp] used to skip
   delta_node entirely, silently misreporting the parameter cascade. With
   d = 1 every constant is its exact integer coefficient, so the output is
   byte-stable under %g. *)
let test_pp_golden () =
  let p = P.make ~n:10 ~f:3 ~delta:1.0 ~pi:0.0 ~rho:0.0 in
  check_str "pp prints the full cascade"
    "n=10 f=3 delta=1 pi=0 rho=0 d=1 Phi=8 Dagr=56 D0=13 Drmv=69 Dv=153 \
     Dnode=209 Dreset=296 Dstb=592 R=widen"
    (Fmt.str "%a" P.pp p)

(* qcheck: the ordering relations between the constants hold for all valid
   parameters — these orderings are what the proofs' decay arguments use. *)
let prop_orderings =
  QCheck.Test.make ~name:"constant cascade orderings" ~count:300
    QCheck.(triple (int_range 4 100) (float_range 0.0001 10.0) (float_range 0.0 0.5))
    (fun (n, delta, rho) ->
      let p = P.make ~n ~f:(P.max_faults n) ~delta ~pi:(0.1 *. delta) ~rho in
      p.P.d > 0.0
      && p.P.phi = p.P.tau_skew +. (2.0 *. p.P.d)
      && p.P.delta_agr >= p.P.phi
      && p.P.delta_rmv > p.P.delta_agr
      && p.P.delta_v > 2.0 *. p.P.delta_rmv
      && p.P.delta_reset > 4.0 *. p.P.delta_rmv
      && p.P.delta_stb = 2.0 *. p.P.delta_reset
      && p.P.delta_node > p.P.delta_v)

let suite =
  [
    case "d formula" test_d_formula;
    case "constant cascade" test_cascade;
    case "max_faults" test_max_faults;
    case "quorums" test_quorums;
    case "validate" test_validate;
    case "default f" test_default_f;
    case "bad inputs" test_bad_inputs;
    case "pp golden" test_pp_golden;
    Helpers.qcheck prop_orderings;
  ]
