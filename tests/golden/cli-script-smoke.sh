#!/bin/sh
# install script for toolchain 1.0 (6 steps)
# plan digest: 5dd95a4eda0d4a2a1a5b979646458f2d02e4891b57798aabea0ece85f847cb20
set -eu

printf '%s\n' '=== [1/6] anchor 1.0 ==='
PKG_NAME=anchor PKG_VERSION=1.0 TOOLCHAIN=1.0 sh -c 'echo "building $PKG_NAME $PKG_VERSION for $TOOLCHAIN"'
PKG_NAME=anchor PKG_VERSION=1.0 TOOLCHAIN=1.0 sh -c 'echo "smoke $PKG_NAME ok"'

printf '%s\n' '=== [2/6] brokenbuild 1.0 ==='
PKG_NAME=brokenbuild PKG_VERSION=1.0 TOOLCHAIN=1.0 sh -c 'echo boom; exit 7'
PKG_NAME=brokenbuild PKG_VERSION=1.0 TOOLCHAIN=1.0 sh -c 'echo "smoke $PKG_NAME ok"'

printf '%s\n' '=== [3/6] cargohold 1.0 ==='
PKG_NAME=cargohold PKG_VERSION=1.0 TOOLCHAIN=1.0 sh -c 'echo "building $PKG_NAME $PKG_VERSION for $TOOLCHAIN"'
PKG_NAME=cargohold PKG_VERSION=1.0 TOOLCHAIN=1.0 sh -c 'echo "smoke $PKG_NAME ok"'

printf '%s\n' '=== [4/6] earthworks 1.0 ==='
PKG_NAME=earthworks PKG_VERSION=1.0 TOOLCHAIN=1.0 sh -c 'echo "building $PKG_NAME $PKG_VERSION for $TOOLCHAIN"'
PKG_NAME=earthworks PKG_VERSION=1.0 TOOLCHAIN=1.0 sh -c 'echo "smoke $PKG_NAME ok"'

printf '%s\n' '=== [5/6] derrick 1.0 ==='
PKG_NAME=derrick PKG_VERSION=1.0 TOOLCHAIN=1.0 sh -c 'echo "building $PKG_NAME $PKG_VERSION for $TOOLCHAIN"'
PKG_NAME=derrick PKG_VERSION=1.0 TOOLCHAIN=1.0 sh -c 'echo "smoke $PKG_NAME ok"'

printf '%s\n' '=== [6/6] gantry 1.0 ==='
PKG_NAME=gantry PKG_VERSION=1.0 TOOLCHAIN=1.0 sh -c 'echo "building $PKG_NAME $PKG_VERSION for $TOOLCHAIN"'
PKG_NAME=gantry PKG_VERSION=1.0 TOOLCHAIN=1.0 sh -c 'echo "smoke $PKG_NAME ok"'
